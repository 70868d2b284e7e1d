"""(lambda, g) grid scans with CSV output and binary checkpoints.

Grid points are independent trajectories from the x-polarized initial state
that differ only in their kick factors and interaction diagonals, so the
scan evolves as many of them at once as fit a fixed entry budget, as one
state stack through the engine's drive step, on the collective layout
(hilbert.CollectiveShape), in one process.
Every row of the stack is computed by the same operations whatever the other
rows are, so a point's record does not depend on which points share its
stack (a fresh run and any resume agree bitwise), and results are returned
in row-major order (lambda outer, g inner). Checkpoints let an interrupted
scan resume without recomputing finished points.
"""

import csv
import itertools
import os
import struct
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


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan: ranges are (lo, hi, steps), endpoints included.

    shape is a CollectiveShape: the scan runs on the collective layout, and
    a SystemShape's 2^n capacity check would reject n_sat that it handles
    (above 23 at s = 2).
    """

    lambda_range: tuple[float, float, int]
    g_range: tuple[float, float, int]
    shape: CollectiveShape
    periods: int
    stride: int

    def __post_init__(self):
        for name, (lo, hi, steps) in (("lambda", self.lambda_range),
                                      ("g", self.g_range)):
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


def _stack_rows(shape: CollectiveShape) -> int:
    """Grid points per stack: as many as fit _STACK_ENTRIES, counting per
    row the state, a working copy of it, the interaction diagonal and the
    two kick factors (271 rows at (8, 2)), and at least one."""
    n, d = shape.n_sat + 1, shape.central_dim
    return max(1, _STACK_ENTRIES // (3 * n * d + n * n + d * d))


def _scan(shape: CollectiveShape, points, periods: int,
          stride: int) -> list[PhaseMapRecord]:
    """Map records of the (lambda, g) points, evolved as one state stack."""
    shape = CollectiveShape(shape.n_sat, shape.two_s)
    tables = precompute(shape, [DriveParams.symmetric(lam, g) for lam, g in points])
    stack = PureState(shape, np.tile(x_polarized_state(shape).amplitudes,
                                     (len(points), 1)))
    columns = evolve(stack, tables, periods,
                     lambda states, first: zip(*period_observables(states)))
    m_sat = [0.5] + [c[0] for c in columns]   # index by period number
    m_c = [shape.s] + [c[1] for c in columns]
    count = periods // stride
    avg_m_sat = stroboscopic_average(m_sat, stride, count)
    avg_m_c = stroboscopic_average(m_c, stride, count)
    # one contiguous row per point, so each mean sums as for a single point
    avg_entropy = np.stack([c[2] for c in columns], axis=-1).mean(axis=-1)
    _, _, o_rel_sat = relative_order_parameter(m_sat, periods)
    _, _, o_rel_c = relative_order_parameter(m_c, periods)
    averages = zip(avg_m_sat, avg_m_c, avg_entropy, o_rel_sat, o_rel_c)
    return [PhaseMapRecord(lam, g, *map(float, values))
            for (lam, g), values in zip(points, averages)]


def compute_point(shape: CollectiveShape, lam: float, g: float,
                  periods: int, stride: int) -> PhaseMapRecord:
    """One trajectory from the x-polarized state, reduced to map averages.

    shape is a CollectiveShape, as for GridSpec.
    """
    return _scan(shape, [(lam, g)], periods, stride)[0]


def run_grid(spec: GridSpec, workers: int | None = None,
             checkpoint_path: str | None = None) -> list[PhaseMapRecord]:
    """Scan the grid, row-major (lambda outer, g inner).

    The points still to compute, in grid order, are evolved in stacks of
    _stack_rows rows in this process; workers is accepted and ignored. With
    checkpoint_path, each stack's points are appended to the checkpoint as
    it finishes and a restart skips them. A trailing record cut short by a
    crash mid-write is dropped from the file and its point recomputed; a
    checkpoint written for another grid, shape, period count or stride
    raises CheckpointError. The checkpoint's header is on disk before the
    first stack starts, and an empty checkpoint (a scan killed before then)
    starts a fresh scan.
    """
    lams = spec.axis("lambda")
    gs = spec.axis("g")
    done: dict[int, PhaseMapRecord] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        # appending after a cut record would corrupt the file for good
        _drop_cut_record(checkpoint_path)
        if os.path.getsize(checkpoint_path) > 0:
            done = dict(read_checkpoint(checkpoint_path, spec))
    ckpt = open(checkpoint_path, "ab") if checkpoint_path else None
    try:
        if ckpt is not None and ckpt.tell() == 0:
            ckpt.write(CHECKPOINT_MAGIC)
            ckpt.write(_FRAME.pack(_RECORD_LENGTH, _SPEC_INDEX, *_fingerprint(spec)))
            ckpt.flush()
        pending = [k for k in range(spec.n_points) if k not in done]
        rows = _stack_rows(spec.shape)
        for start in range(0, len(pending), rows):
            chunk = pending[start:start + rows]
            points = [(float(lams[k // len(gs)]), float(gs[k % len(gs)]))
                      for k in chunk]
            for index, rec in zip(chunk, _scan(spec.shape, points,
                                               spec.periods, spec.stride)):
                done[index] = rec
                if ckpt is not None:
                    _write_checkpoint_record(ckpt, index, rec)
    finally:
        if ckpt is not None:
            ckpt.close()
    return [done[i] for i in range(spec.n_points)]


def _fingerprint(spec: GridSpec) -> tuple:
    # the seventh field of the record is unused
    return (spec.shape.n_sat, spec.shape.two_s, spec.periods, spec.stride,
            spec.lambda_range[2], spec.g_range[2], 0)


def _record_values(rec: PhaseMapRecord) -> list[float]:
    return [getattr(rec, f.name) for f in fields(PhaseMapRecord)]


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
    rejects every other malformation. A file cut inside its first record is
    emptied, so that the scan writes its header, fingerprint included, anew."""
    size = os.path.getsize(path)
    magic = len(CHECKPOINT_MAGIC)
    if size < magic:
        return
    whole = size - (size - magic) % _FRAME.size
    if whole == size:
        return
    with open(path, "rb") as fh:
        head = fh.read(magic)
        fh.seek(whole)
        tail = fh.read(len(_RECORD_LENGTH))
    if head == CHECKPOINT_MAGIC and _RECORD_LENGTH.startswith(tail):
        os.truncate(path, whole if whole > magic else 0)


def read_checkpoint(path: str, spec: GridSpec | None = None
                    ) -> list[tuple[int, PhaseMapRecord]]:
    """Parse a checkpoint file into (grid index, record) pairs.

    With spec, every record must sit on spec's grid at its index and the
    spec fingerprint stored after the magic, if the file has one, must be
    spec's; CheckpointError names the first mismatch.
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
        if stored is not None and tuple(_record_values(stored)) != want:
            written = tuple(int(v) for v in _record_values(stored)[:6])
            raise CheckpointError(
                f"{path}: written for (n_sat, two_s, periods, stride, lambda "
                f"steps, g steps) = {written}, the scan has {want[:6]}")
    return records


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_lines(destination: str, lines) -> None:
    """Write each of lines, newline-terminated, one at a time.

    They go to a temporary file beside destination, which then replaces
    destination in one step, so a failed write leaves any earlier file whole.
    """
    tmp = f"{destination}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, destination)
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
