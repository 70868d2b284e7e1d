"""(lambda, g) grid scans with CSV output and binary checkpoints.

Grid points are independent trajectories from the x-polarized initial state
that differ only in their kick factors and interaction diagonals, so the
scan evolves as many of them at once as fit a fixed entry budget, as one
state stack through the engine's drive step, in one process.
Every row of the stack is computed by the same operations whatever the other
rows are, so a point's record does not depend on which points share its
stack (a fresh run and any resume agree bitwise), and results are returned
in row-major order (lambda outer, g inner). Checkpoints let an interrupted
scan resume without recomputing finished points.

The drive U = e^{i lambda J^x S^x} e^{-i g (J^z + S^z)} gives every point
the map record of its canonical point (fold), so each distinct canonical
point is evolved once. Symmetries that keep the trajectory observables
(<J^x>, <S^x>, the central entropy and the fidelity to the start):
- e^{i 4pi J^x S^x} is +-1, because (2J^x)(2S^x) has integer eigenvalues
  of one parity: lambda and lambda + 4pi agree. When n_sat is even and s
  an integer, J^x S^x itself has integer eigenvalues, so e^{i 2pi J^x S^x}
  is 1 and lambda and lambda + 2pi agree;
- e^{-2pi i (J^z + S^z)} is a global phase: g and g + 2pi agree;
- R = e^{i pi (J^x + S^x)} maps g to -g, and R K, K complex conjugation in
  the z basis, maps lambda to -lambda. Both keep the x-polarized start up
  to a phase, and the observables above.
One more holds at every shape but flips the magnetizations:
- P = e^{-i pi (J^z + S^z)} commutes with both factors of U and flips J^x
  and S^x, and U(lambda, pi - g) = P U(lambda, -g). So at pi - g, M(n)
  becomes (-1)^n M(n) and the entropy stays. At an even stride the
  stroboscopic averages stay too, and O_dtc and O_dmf swap places, so
  o_rel_sat and o_rel_c change sign: a mirror image's record is its
  canonical record with both o_rel negated. An odd stride does not fold g
  this way.
And one more on the no-kick line:
- at g = 0, U = e^{i lambda J^x S^x} is diagonal in the joint x basis, and
  the x-polarized start is one of its eigenvectors, so every lambda has
  the record of (0, 0).
The canonical cell is lambda in [0, pi] at even n_sat with integer s, else
[0, 2pi], times g in (0, pi/2] at an even stride, else (0, pi], plus the
point (0, 0). A scan keys each folded angle by the grid value it lands on,
within _SNAP grid steps, so a mirror grid value that the fold misses by an
ulp still shares its canonical point's evolution. At (8, 2), stride 2, the
9 x 5 grid over [0, 4pi] x [0, 2pi] of perfbench's phase_map evolves 4 of
its 45 points, and the default 65 x 33 grid 137 of its 2,145.
"""

import csv
import itertools
import math
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError, CheckpointError
from .hilbert import CollectiveShape, PureState, x_polarized_state
from .floquet import DriveParams, precompute, evolve, _STACK_ENTRIES
from .observables import period_observables
from .diagnostics import stroboscopic_average, relative_order_parameter

CHECKPOINT_MAGIC = b"DTC1"
CSV_HEADER = "lambda,g,avg_m_sat,avg_m_c,avg_entropy,o_rel_sat,o_rel_c"
CSV_COMMENT = ("# avg_entropy is the mean central-satellite entanglement "
               "entropy over every period 1..periods")

# a stored record: length prefix, grid index and seven float64 fields
_FRAME = struct.Struct("<4sI7d")
_RECORD_LENGTH = struct.pack("<I", _FRAME.size - 4)   # every record's prefix
# index of the record right after the magic that holds the spec fingerprint
_SPEC_INDEX = 0xFFFFFFFF
# the fingerprint's last field: the version of the values the records hold.
# Bump it whenever a change alters the values a scan stores, so that a
# checkpoint of older values is rejected rather than resumed into a CSV
# that differs from a fresh scan's. Every version before the field was read
# wrote 0, and such a checkpoint may hold values of an older fold.
RECORD_VERSION = 3
# a folded angle within this many grid steps of a grid value is keyed by
# that value: far above the ulps a fold adds, far below the step
_SNAP = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan: ranges are (lo, hi, steps), endpoints included."""

    lambda_range: tuple[float, float, int]
    g_range: tuple[float, float, int]
    shape: CollectiveShape
    periods: int
    stride: int

    def __post_init__(self):
        for name, (lo, hi, steps) in (("lambda", self.lambda_range),
                                      ("g", self.g_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ShapeError(f"{name} range needs finite ends, got ({lo}, {hi})")
            if steps < 1:
                raise ShapeError(f"{name} range needs steps >= 1, got {steps}")
            if steps > 1 and hi <= lo:
                raise ShapeError(f"{name} range needs hi > lo, got ({lo}, {hi})")
        if self.stride < 1 or self.periods < self.stride:
            raise ShapeError(
                f"need periods >= stride >= 1, got periods={self.periods}, "
                f"stride={self.stride}")

    def axis(self, which: str) -> np.ndarray:
        lo, hi, steps = self.lambda_range if which == "lambda" else self.g_range
        return np.array([lo]) if steps == 1 else np.linspace(lo, hi, steps)

    @property
    def n_points(self) -> int:
        return self.lambda_range[2] * self.g_range[2]


@dataclass(frozen=True)
class PhaseMapRecord:
    lam: float
    g: float
    avg_m_sat: float
    avg_m_c: float
    avg_entropy: float
    o_rel_sat: float
    o_rel_c: float


_RECORD_FIELDS = tuple(f.name for f in fields(PhaseMapRecord))


def _stack_rows(shape: CollectiveShape) -> int:
    """Grid points per stack: as many as fit _STACK_ENTRIES, counting per
    row the state, a working copy of it, the interaction diagonal and the
    two kick factors (271 rows at (8, 2)), and at least one."""
    n, d = shape.n_sat + 1, shape.central_dim
    return max(1, _STACK_ENTRIES // (3 * n * d + n * n + d * d))


def fold(lam: float, g: float, shape: CollectiveShape,
         stride: int) -> tuple[float, float, bool]:
    """The canonical point of (lam, g) in a scan of shape at stride, and
    whether (lam, g) is a mirror image of it (module docstring).

    lam is taken mod 2pi and reflected to 2pi - lam above pi when n_sat is
    even and s an integer, else mod 4pi and reflected to 4pi - lam above
    2pi; g mod 2pi, reflected to 2pi - g above pi, and at an even stride
    then to pi - g above pi/2, which makes (lam, g) a mirror image. A
    folded g of exactly 0 sends lam to 0 (no kick). A point already in the
    cell with g > 0 comes back bitwise unchanged and not mirrored.
    """
    period = 2 * math.pi if shape.n_sat % 2 == 0 and shape.two_s % 2 == 0 \
        else 4 * math.pi
    lam %= period
    if lam > period / 2:
        lam = period - lam
    g %= 2 * math.pi
    if g > math.pi:
        g = 2 * math.pi - g
    mirrored = stride % 2 == 0 and g > math.pi / 2
    if mirrored:
        g = math.pi - g
    if g == 0.0:
        lam = 0.0
    return lam, g, mirrored


def _on_grid(value: float, axis: np.ndarray) -> float:
    """The value of axis, a np.linspace, that value lies within _SNAP steps
    of, else value itself."""
    if len(axis) == 1:
        return value
    step = (axis[-1] - axis[0]) / (len(axis) - 1)
    nearest = float(axis[min(max(round((value - axis[0]) / step), 0),
                             len(axis) - 1)])
    return nearest if abs(value - nearest) <= _SNAP * step else value


def _canonical_points(spec: GridSpec) -> tuple[list, list[bool]]:
    """The evolution key of each grid point, row-major, and whether the
    point is a mirror image of it: the point's fold, with each folded angle
    replaced by the grid value it lands on (_on_grid), if any, and lambda
    sent to 0 where g lands on 0, as fold does for an exact 0 (a g axis can
    put pi an ulp off, and its fold an ulp off 0)."""
    lams, gs = spec.axis("lambda"), spec.axis("g")
    keys, mirrored = [], []
    for lam in lams:
        for g in gs:
            lam_c, g_c, mirror = fold(float(lam), float(g), spec.shape, spec.stride)
            g_c = _on_grid(g_c, gs)
            keys.append((_on_grid(lam_c, lams) if g_c else 0.0, g_c))
            mirrored.append(mirror)
    return keys, mirrored


def _mirror(values, mirrored: bool) -> tuple[float, ...]:
    """The five map averages of a point, from those of its canonical point
    (or back: the map is its own inverse): unchanged, or with o_rel_sat and
    o_rel_c negated at a mirror image."""
    if not mirrored:
        return tuple(values)
    m_sat, m_c, entropy, o_rel_sat, o_rel_c = values
    return m_sat, m_c, entropy, -o_rel_sat, -o_rel_c


def _scan(shape: CollectiveShape, points, periods: int,
          stride: int) -> list[tuple[float, ...]]:
    """The five map averages of each (lambda, g) point, evolved as one
    state stack."""
    tables = precompute(shape, [DriveParams.symmetric(lam, g) for lam, g in points])
    stack = PureState(shape, np.tile(x_polarized_state(shape).amplitudes,
                                     (len(points), 1)))
    observed = evolve(stack, tables, periods, lambda states, first:
                      list(np.stack(period_observables(states), axis=1)))
    # (period number, column, row), period 0 being the start
    start = np.broadcast_to([[0.5], [shape.s], [0.0]], observed[0].shape)
    series = np.array([start, *observed])
    m_sat, m_c = series[:, 0], series[:, 1]
    count = periods // stride
    avg_m_sat = stroboscopic_average(m_sat, stride, count)
    avg_m_c = stroboscopic_average(m_c, stride, count)
    # one contiguous row per point, so each mean sums as for a single point
    avg_entropy = np.ascontiguousarray(series[1:, 2].T).mean(axis=-1)
    _, _, o_rel_sat = relative_order_parameter(m_sat, periods)
    _, _, o_rel_c = relative_order_parameter(m_c, periods)
    return [tuple(values) for values in np.stack(
        (avg_m_sat, avg_m_c, avg_entropy, o_rel_sat, o_rel_c), axis=-1).tolist()]


def compute_point(shape: CollectiveShape, lam: float, g: float,
                  periods: int, stride: int) -> PhaseMapRecord:
    """One trajectory from the x-polarized state, reduced to map averages.

    It is evolved at the canonical point of fold(lam, g, shape, stride), and
    the record carries lam and g as given, with both o_rel negated at a
    mirror image. run_grid evolves at that point's grid value instead
    (_canonical_points), so a mirror row of a scan equals compute_point at
    its canonical grid point, mapped as above, and may differ in the last
    bits from compute_point at its own.
    """
    lam_c, g_c, mirrored = fold(lam, g, shape, stride)
    values = _scan(shape, [(lam_c, g_c)], periods, stride)[0]
    return PhaseMapRecord(lam, g, *_mirror(values, mirrored))


def run_grid(spec: GridSpec, checkpoint_path: str | None = None,
             report: Callable[[str], None] | None = None
             ) -> list[PhaseMapRecord]:
    """Scan the grid, row-major (lambda outer, g inner).

    Each distinct key (_canonical_points: the fold, each folded angle
    replaced by the grid value within _SNAP steps of it, if any) of the
    points still to compute is evolved once at that key, in grid order of
    its first point, in stacks of _stack_rows rows in this process, and
    every point with that key gets its values, with both o_rel negated at
    a mirror image, and the point's own (lambda, g). A fold that misses the
    grid keeps its float, so an asymmetric grid still evolves every point
    it needs, and a row depends only on its own (lambda, g) and the grid's
    axes.

    With checkpoint_path, records are appended to the checkpoint in grid
    order as their values become known, and a restart skips them; a point
    whose key a stored record shares takes the values of the lowest such
    record, mapped back from a mirror image, without an evolution. A
    trailing record cut short by a crash mid-write is dropped from the file,
    and its point is recomputed, or takes the values of a stored record of
    its key; a checkpoint written for another grid, shape, period count or
    stride, or with records of another RECORD_VERSION, raises
    CheckpointError. The checkpoint's header is on disk before the first
    stack starts, and an empty checkpoint (a scan killed before then), or
    one cut inside its header, starts a fresh scan.
    report, if given, receives one line at the end: the points evolved,
    taken from a mirror point and resumed.
    """
    points = [(float(lam), float(g))
              for lam in spec.axis("lambda") for g in spec.axis("g")]
    keys, mirrored = _canonical_points(spec)
    done: dict[int, PhaseMapRecord] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        # appending after a cut record would corrupt the file for good
        _drop_cut_record(checkpoint_path)
        if os.path.getsize(checkpoint_path) > 0:
            done = dict(read_checkpoint(checkpoint_path, spec))
    values = {}     # key -> its five averages
    for index in sorted(done):
        values.setdefault(keys[index], _mirror(_record_values(done[index])[2:],
                                               mirrored[index]))
    pending = [k for k in range(spec.n_points) if k not in done]
    # in grid order of their first point, so each stack's first point is
    # the next pending one without values
    todo = list(dict.fromkeys(keys[k] for k in pending if keys[k] not in values))
    ckpt = open(checkpoint_path, "ab") if checkpoint_path else None
    try:
        if ckpt is not None and ckpt.tell() == 0:
            ckpt.write(CHECKPOINT_MAGIC)
            ckpt.write(_FRAME.pack(_RECORD_LENGTH, _SPEC_INDEX, *_fingerprint(spec)))
            ckpt.flush()
        rows, start = _stack_rows(spec.shape), 0
        for index in pending:
            if keys[index] not in values:
                stack = todo[start:start + rows]
                start += rows
                values.update(zip(stack, _scan(spec.shape, stack, spec.periods,
                                               spec.stride)))
            rec = PhaseMapRecord(*points[index],
                                 *_mirror(values[keys[index]], mirrored[index]))
            done[index] = rec
            if ckpt is not None:
                _write_checkpoint_record(ckpt, index, rec)
    finally:
        if ckpt is not None:
            ckpt.close()
    if report is not None:
        report(f"computed {len(todo)} of {spec.n_points} points "
               f"({len(pending) - len(todo)} by symmetry, "
               f"{spec.n_points - len(pending)} resumed)")
    return [done[i] for i in range(spec.n_points)]


def _fingerprint(spec: GridSpec) -> tuple:
    return (spec.shape.n_sat, spec.shape.two_s, spec.periods, spec.stride,
            spec.lambda_range[2], spec.g_range[2], RECORD_VERSION)


def _record_values(rec: PhaseMapRecord) -> list[float]:
    return [getattr(rec, name) for name in _RECORD_FIELDS]


def _write_checkpoint_record(fh, index: int, rec: PhaseMapRecord) -> None:
    fh.write(_FRAME.pack(_RECORD_LENGTH, index, *_record_values(rec)))
    fh.flush()


def _check_grid(spec: GridSpec, records, path: str) -> None:
    """Every stored record must sit on this grid at its index; both sides
    come from the same np.linspace, so (lambda, g) compare exactly."""
    lams, gs = spec.axis("lambda"), spec.axis("g")
    for index, rec in records:
        if index >= spec.n_points:
            raise CheckpointError(
                f"{path}: record index {index} is outside the "
                f"{spec.n_points}-point grid")
        i, j = divmod(index, len(gs))
        if (rec.lam, rec.g) != (lams[i], gs[j]):
            raise CheckpointError(
                f"{path}: record {index} is at (lambda, g) = ({rec.lam!r}, "
                f"{rec.g!r}), the grid has ({float(lams[i])!r}, "
                f"{float(gs[j])!r}); the checkpoint was written for another grid")


def _drop_cut_record(path: str) -> None:
    """Truncate a checkpoint that ends inside a record, as a crash mid-write
    leaves it, to the end of its last whole record. Records have one size,
    so the cut is whatever follows the last whole one; read_checkpoint still
    rejects every other malformation. The magic and the first record (the
    fingerprint) go out in one flush, so a file cut anywhere inside them,
    the magic itself included, is emptied, and the scan writes its header
    anew."""
    size = os.path.getsize(path)
    magic = len(CHECKPOINT_MAGIC)
    whole = size - (size - magic) % _FRAME.size if size > magic else 0
    if whole == size:
        return
    with open(path, "rb") as fh:
        head = fh.read(magic)
        fh.seek(whole)
        tail = fh.read(len(_RECORD_LENGTH))
    if CHECKPOINT_MAGIC.startswith(head) and (
            size <= magic or _RECORD_LENGTH.startswith(tail)):
        os.truncate(path, whole if whole > magic else 0)


def read_checkpoint(path: str, spec: GridSpec | None = None
                    ) -> list[tuple[int, PhaseMapRecord]]:
    """Parse a checkpoint file into (grid index, record) pairs.

    With spec, every record must sit on spec's grid at its index and the
    spec fingerprint stored after the magic, if the file has one, must be
    spec's, RECORD_VERSION included; CheckpointError names the first
    mismatch.
    """
    with open(path, "rb") as fh:
        magic, body = fh.read(len(CHECKPOINT_MAGIC)), fh.read()
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
    prefixes = {body[k:k + 4] for k in range(0, len(body), _FRAME.size)}
    if len(body) % _FRAME.size or prefixes - {_RECORD_LENGTH}:
        raise CheckpointError(f"truncated or missized record in {path}")
    records = [(index, PhaseMapRecord(*vals))
               for _, index, *vals in _FRAME.iter_unpack(body)]
    stored = records.pop(0)[1] if records and records[0][0] == _SPEC_INDEX else None
    if spec is not None:
        _check_grid(spec, records, path)
        want = _fingerprint(spec)
        written = _record_values(stored) if stored is not None else want
        if tuple(written[:6]) != want[:6]:
            raise CheckpointError(
                f"{path}: written for (n_sat, two_s, periods, stride, lambda "
                f"steps, g steps) = {tuple(int(v) for v in written[:6])}, the "
                f"scan has {want[:6]}")
        if written[6] != want[6]:
            raise CheckpointError(
                f"{path}: holds records of version {written[6]:g}, this "
                f"version writes {want[6]}; its values may differ from a "
                f"fresh scan's, so the scan must start afresh")
    return records


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_lines(destination: str, lines) -> None:
    """Write each of lines, newline-terminated, one at a time.

    They go to a temporary file beside destination, which then replaces
    destination in one step, so a failed write leaves any earlier file whole.
    An OSError names destination, not the temporary file.
    """
    tmp = f"{destination}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, destination)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, destination) from exc
    finally:
        if os.path.exists(tmp):     # the write failed part-way
            os.remove(tmp)


def write_csv(records: list[PhaseMapRecord], destination: str) -> None:
    """Write the phase map through write_lines; floats carry 17 significant
    digits."""
    write_lines(destination, itertools.chain(
        [CSV_COMMENT, CSV_HEADER],
        (",".join(_fmt(v) for v in _record_values(rec)) for rec in records)))


def read_csv(source: str) -> list[PhaseMapRecord]:
    """Parse write_csv output; malformed rows report their line number."""
    out = []
    with open(source, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise CheckpointError(f"bad or missing header in {source}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 7:
                raise CheckpointError(f"{source}:{lineno}: expected 7 fields, got {len(row)}")
            try:
                out.append(PhaseMapRecord(*[float(v) for v in row]))
            except ValueError as exc:
                raise CheckpointError(f"{source}:{lineno}: {exc}") from None
    return out
