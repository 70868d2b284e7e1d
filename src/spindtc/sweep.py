"""(lambda, g) grid scans with CSV output and binary checkpoints, and
write_rows, the one CSV writer of every command.

Grid points are independent trajectories from the x-polarized initial state
that differ only in their kick factors and interaction diagonals, so the
scan hands as many of them at once as fit a fixed entry budget to
observables.series, which evolves them as one state stack, in one process.
Every row of the stack is computed by the same operations whatever the other
rows are, so a point's record does not depend on which points share its
stack (a fresh run and any resume agree bitwise), and results are returned
in row-major order (lambda outer, g inner). Checkpoints let an interrupted
scan resume without recomputing finished points: a scan opens its
checkpoint once and reads, repairs and appends to it through that handle,
and a scan without one keeps its records in memory and touches no file.

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
  the record of (0, 0), and that record is the start's own: the x
  magnetizations stay 1/2 and s and the entropy 0 at every period.
The lines lambda = 0 and 2pi have closed forms: the start stays a product
of coherent states in the xy plane, with entropy 0 at every period
(observables.product_series). A stack's keys take their series from
observables.series, which evolves none whose lambda is exactly 0 or 2pi,
(0, 0) among them, and every series goes through the same reductions
(_scan).
The canonical cell is lambda in [0, pi] at even n_sat with integer s, else
[0, 2pi], times g in (0, pi/2] at an even stride, else (0, pi], plus the
point (0, 0). A scan keys each folded angle by the grid value it lands on,
within _SNAP grid steps, so a mirror grid value that the fold misses by an
ulp still shares its canonical point's evolution. At (8, 2), stride 2, the
9 x 5 grid over [0, 4pi] x [0, 2pi] of perfbench's phase_map has 4 keys
for its 45 points and evolves 2 of them, (0, 0) and (0, pi/2) having
closed forms, and the default 65 x 33 grid has 137 keys for its 2,145
points and evolves 128 (265 and 248 at (9, 5/2)). The grid's bookkeeping
(fold and snap, checkpoint records, CSV rows) runs as array passes over
the whole grid or a stack's worth of records, and one table of seven
values per point holds every row, stored, mirrored or computed, and is
what run_grid returns.
"""

import errno
import io
import itertools
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, CheckpointError
from .hilbert import CollectiveShape
from .floquet import _STACK_ENTRIES
from .observables import series
from .diagnostics import stroboscopic_average, relative_order_parameter

CHECKPOINT_MAGIC = b"DTC1"
CSV_HEADER = "lambda,g,avg_m_sat,avg_m_c,avg_entropy,o_rel_sat,o_rel_c"
CSV_COMMENT = ("# avg_entropy is the mean central-satellite entanglement "
               "entropy over every period 1..periods")

# a stored record, 64 bytes: length prefix, grid index and seven float64
# fields
_FRAME = np.dtype([("length", "S4"), ("index", "<u4"), ("values", "<f8", (7,))])
_RECORD_LENGTH = (_FRAME.itemsize - 4).to_bytes(4, "little")  # every prefix
# index of the record right after the magic that holds the spec fingerprint
_SPEC_INDEX = 0xFFFFFFFF
# the fingerprint's last field: the version of the values the records hold.
# Bump it whenever a change alters the values a scan stores, so that a
# checkpoint of older values is rejected rather than resumed into a CSV
# that differs from a fresh scan's. Every version before the field was read
# wrote 0, and such a checkpoint may hold values of an older fold.
RECORD_VERSION = 5
# a folded angle within this many grid steps of a grid value is keyed by
# that value: far above the ulps a fold adds, far below the step
_SNAP = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan: ranges are (lo, hi, steps), endpoints included.
    lambdas and gs are the two axes, built once, as read-only arrays:
    np.linspace(lo, hi, steps), which is lo alone for one step."""

    lambda_range: tuple[float, float, int]
    g_range: tuple[float, float, int]
    shape: CollectiveShape
    periods: int
    stride: int
    lambdas: np.ndarray = field(init=False, repr=False, compare=False)
    gs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, (lo, hi, steps) in (("lambda", self.lambda_range),
                                      ("g", self.g_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ShapeError(f"{name} range needs finite ends, got ({lo}, {hi})")
            if steps < 1:
                raise ShapeError(f"{name} range needs steps >= 1, got {steps}")
            if steps > 1 and hi <= lo:
                raise ShapeError(f"{name} range needs hi > lo, got ({lo}, {hi})")
            axis = np.linspace(lo, hi, steps)
            axis.flags.writeable = False
            object.__setattr__(self, f"{name}s", axis)
        if self.stride < 1 or self.periods < self.stride:
            raise ShapeError(
                f"need periods >= stride >= 1, got periods={self.periods}, "
                f"stride={self.stride}")

    @property
    def n_points(self) -> int:
        return self.lambda_range[2] * self.g_range[2]


def _stack_rows(shape: CollectiveShape) -> int:
    """Grid points per stack: as many as fit _STACK_ENTRIES, counting per
    row the state, a working copy of it, the interaction diagonal and the
    two kick factors (271 rows at (8, 2)), and at least one."""
    n, d = shape.n_sat + 1, shape.central_dim
    return max(1, _STACK_ENTRIES // (3 * n * d + n * n + d * d))


def fold(lam, g, shape: CollectiveShape, stride: int):
    """The canonical point of (lam, g) in a scan of shape at stride, and
    whether (lam, g) is a mirror image of it (module docstring), elementwise
    over angles that broadcast together; scalar angles give numpy scalars.

    lam is taken mod 2pi and reflected to 2pi - lam above pi when n_sat is
    even and s an integer, else mod 4pi and reflected to 4pi - lam above
    2pi; g mod 2pi, reflected to 2pi - g above pi, and at an even stride
    then to pi - g above pi/2, which makes (lam, g) a mirror image. A
    folded g of exactly 0 sends lam to 0 (no kick). A point already in the
    cell with g > 0 comes back bitwise unchanged and not mirrored. Each
    step is the float operation of Python's % and -, so the fold of an
    array is bitwise the fold of each of its entries. A non-finite angle
    folds to nan.
    """
    period = 2 * math.pi if shape.n_sat % 2 == 0 and shape.two_s % 2 == 0 \
        else 4 * math.pi
    with np.errstate(invalid="ignore"):
        lam, g = np.mod(lam, period), np.mod(g, 2 * math.pi)
    lam = np.where(lam > period / 2, period - lam, lam)
    g = np.where(g > math.pi, 2 * math.pi - g, g)
    mirrored = np.asarray((g > math.pi / 2) & (stride % 2 == 0))
    g = np.where(mirrored, math.pi - g, g)
    lam = np.where(g == 0.0, 0.0, lam)
    return lam[()], g[()], mirrored[()]


def _snap(values: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """values with each entry that lies within _SNAP steps of a value of
    axis, a np.linspace, replaced by that value."""
    if len(axis) == 1:
        return values
    step = (axis[-1] - axis[0]) / (len(axis) - 1)
    nearest = axis[np.clip(np.rint((values - axis[0]) / step), 0,
                           len(axis) - 1).astype(np.intp)]
    return np.where(abs(values - nearest) <= _SNAP * step, nearest, values)


def _canonical_points(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The evolution key of each grid point, row-major, as a C-contiguous
    (n_points, 2) array of (lambda, g), and whether the point is a mirror
    image of it: the point's fold, with each folded angle replaced by the
    grid value it lands on (_snap), if any, and lambda sent to 0 where g
    lands on 0, as fold does for an exact 0 (a g axis can put pi an ulp
    off, and its fold an ulp off 0). One fold and one snap per axis over
    the whole grid."""
    lams, gs = spec.lambdas, spec.gs
    lam, g, mirrored = fold(lams[:, None], gs, spec.shape, spec.stride)
    g = np.broadcast_to(_snap(g, gs), lam.shape)
    lam = np.where(g == 0.0, 0.0, _snap(lam, lams))
    return (np.stack((lam.ravel(), g.ravel()), axis=-1),
            np.broadcast_to(mirrored, lam.shape).ravel())


def _mirror(values, mirrored) -> np.ndarray:
    """The five map averages of points, the last axis of values, from those
    of their canonical points (or back: the map is its own inverse):
    unchanged, or with o_rel_sat and o_rel_c negated where mirrored."""
    values = np.array(values, dtype=float)
    flip = np.asarray(mirrored)[..., None]
    values[..., 3:] = np.where(flip, -values[..., 3:], values[..., 3:])
    return values


def _scan(shape: CollectiveShape, points, periods: int,
          stride: int) -> np.ndarray:
    """The five map averages of each (lambda, g) point, one row per point:
    the reductions of the point's observables.series, row by row."""
    lam, g = np.asarray(points, dtype=float).reshape(-1, 2).T
    m_sat, m_c, entropy, _ = series(shape, lam, g, periods)
    count = periods // stride
    avg_m_sat = stroboscopic_average(m_sat, stride, count)
    avg_m_c = stroboscopic_average(m_c, stride, count)
    # one contiguous row per point, so each mean sums as for a single point
    avg_entropy = np.ascontiguousarray(entropy[1:].T).mean(axis=-1)
    _, _, o_rel_sat = relative_order_parameter(m_sat, periods)
    _, _, o_rel_c = relative_order_parameter(m_c, periods)
    return np.stack((avg_m_sat, avg_m_c, avg_entropy, o_rel_sat, o_rel_c),
                    axis=-1)


def run_grid(spec: GridSpec, checkpoint_path: str | None = None,
             report: Callable[[str], None] | None = None
             ) -> np.ndarray:
    """Scan the grid: an (n_points, 7) float array, one row per point in
    row-major order (lambda outer, g inner), its columns those of
    CSV_HEADER.

    Each distinct key (_canonical_points: the fold, each folded angle
    replaced by the grid value within _SNAP steps of it, if any) of the
    points still to compute is computed once at that key (_scan; a key
    whose lambda is 0 or 2pi has a closed form, observables.series, and is
    not evolved), in grid order of its first point, in stacks of
    _stack_rows keys in this process, and every point with that key gets
    its values, with both o_rel negated at a mirror image, and the point's
    own (lambda, g). A fold that misses the grid keeps its float, so an
    asymmetric grid still evolves every point it needs, and a row depends
    only on its own (lambda, g) and the grid's axes. A one-point axis has
    no other value to snap to, so a one-point grid evolves at the fold
    itself, and a mirror row of a larger grid may differ in the last bits
    from the one-point grid at its own (lambda, g). Stored, mirrored and
    computed rows all go into one table of seven values per point, which
    is returned.

    The checkpoint at checkpoint_path is opened once, and read, repaired
    and appended to through that one handle; without one, the same steps
    run on an empty buffer in memory (64 bytes per point, thrown away),
    and no file is touched. Records are appended in grid order: before
    each stack starts, the records of every point whose values are known
    by then go out in one write and one flush, and the rest at the end. A
    restart skips them; a point whose key a stored record shares takes the
    values of the lowest such record, mapped back from a mirror image,
    without an evolution. A trailing record cut short by a crash mid-write
    is dropped from the file (_drop_cut_record), and its point is
    recomputed, or takes the values of a stored record of its key; a
    checkpoint without the spec fingerprint, or written for another grid,
    shape, period count or stride, or with records of another
    RECORD_VERSION, or that holds a grid index twice, raises
    CheckpointError (_read_records). The checkpoint's header is on disk
    before the first stack starts, and an empty checkpoint (a scan killed
    before then), or one cut inside its header, starts a fresh scan.
    report, if given, receives one line at the end: the points computed
    (one per key), taken from a mirror point and resumed.
    """
    keys, mirrored = _canonical_points(spec)
    # each point's head: the grid index of the first point of its key,
    # which stands for the key. np.unique sorts stably, so its index is each
    # key's first occurrence. It sorts each key as one complex number
    # lambda + i g, in lexicographic order: 3 to 10 times faster than
    # np.unique(keys, axis=0), which sorts structured rows
    _, first, key = np.unique(keys.view(complex).ravel(), return_index=True,
                              return_inverse=True)
    heads = first[key]
    lams, gs = spec.lambdas, spec.gs
    table = np.empty((spec.n_points, 7))    # every point's record
    table[:, 0], table[:, 1] = np.repeat(lams, len(gs)), np.tile(gs, len(lams))
    resumed = np.zeros(spec.n_points, bool)
    with (io.BytesIO() if checkpoint_path is None
          else open(checkpoint_path, "a+b")) as ckpt:
        ckpt.seek(0)
        data = ckpt.read()
        # appending after a cut record would corrupt the file for good
        whole = _drop_cut_record(data)
        if len(whole) < len(data):
            ckpt.truncate(len(whole))
        if whole:
            frames = _read_records(whole, spec, checkpoint_path)
            table[frames["index"]] = frames["values"]
            resumed[frames["index"]] = True
        else:
            ckpt.write(CHECKPOINT_MAGIC
                       + _pack_records([_SPEC_INDEX], [_fingerprint(spec)]))
            ckpt.flush()
        stored, pending = np.flatnonzero(resumed), np.flatnonzero(~resumed)
        values = np.empty((spec.n_points, 5))   # each head's five averages
        # a stored key's values: those of its lowest stored record
        stored_heads, lowest = np.unique(heads[stored], return_index=True)
        lowest = stored[lowest]
        values[stored_heads] = _mirror(table[lowest, 2:], mirrored[lowest])
        # the heads of the keys without values, in grid order: every point
        # of such a key is pending, so each stack's first head is the next
        # pending point without values
        unknown = heads == np.arange(spec.n_points)
        unknown[stored_heads] = False
        todo = np.flatnonzero(unknown)
        size = _stack_rows(spec.shape)
        # before stack k, the records of pending[bounds[k]:bounds[k + 1]]
        # go out: those ahead of its first head, which are known by then;
        # after the last, the rest
        bounds = [0, *np.searchsorted(pending, todo[::size]).tolist(),
                  len(pending)]
        for k, (begin, end) in enumerate(itertools.pairwise(bounds)):
            part = pending[begin:end]
            table[part, 2:] = _mirror(values[heads[part]], mirrored[part])
            ckpt.write(_pack_records(part, table[part]))
            ckpt.flush()
            stack = todo[k * size:(k + 1) * size]
            if stack.size:
                values[stack] = _scan(spec.shape, keys[stack], spec.periods,
                                      spec.stride)
    if report is not None:
        report(f"computed {len(todo)} of {spec.n_points} points "
               f"({len(pending) - len(todo)} by symmetry, "
               f"{len(stored)} resumed)")
    return table


def _fingerprint(spec: GridSpec) -> tuple:
    return (spec.shape.n_sat, spec.shape.two_s, spec.periods, spec.stride,
            spec.lambda_range[2], spec.g_range[2], RECORD_VERSION)


def _pack_records(indices, values) -> bytes:
    """Records as a checkpoint stores them: one frame per grid index, with
    its row of seven values."""
    frames = np.empty(len(indices), _FRAME)
    frames["length"] = _RECORD_LENGTH
    frames["index"] = indices
    frames["values"] = values
    return frames.tobytes()


def _check_grid(spec: GridSpec, indices: np.ndarray, values: np.ndarray,
                path: str) -> None:
    """Every stored record must sit on this grid at its index; both sides
    come from the grid's axes, so (lambda, g) compare exactly. The
    first record that does not is named."""
    lams, gs = spec.lambdas, spec.gs
    outside = indices >= spec.n_points
    i, j = np.divmod(np.where(outside, 0, indices), len(gs))
    off = (values[:, 0] != lams[i]) | (values[:, 1] != gs[j])
    bad = np.flatnonzero(outside | off)
    if not bad.size:
        return
    k = bad[0]
    index = int(indices[k])
    if outside[k]:
        raise CheckpointError(
            f"{path}: record index {index} is outside the "
            f"{spec.n_points}-point grid")
    raise CheckpointError(
        f"{path}: record {index} is at (lambda, g) = "
        f"({float(values[k, 0])!r}, {float(values[k, 1])!r}), the grid has "
        f"({float(lams[i[k]])!r}, {float(gs[j[k]])!r}); the checkpoint was "
        f"written for another grid")


def _drop_cut_record(data: bytes) -> bytes:
    """data, a checkpoint's bytes, without the part of a record that a
    crash mid-write leaves at its end: cut to the end of its last whole
    record. Records have one size, so the cut is whatever follows the last
    whole one; _read_records still rejects every other malformation. The
    magic and the first record (the fingerprint) go out in one flush, so
    bytes cut anywhere inside them, the magic itself included, come back
    empty, and the scan writes its header anew."""
    size, magic = len(data), len(CHECKPOINT_MAGIC)
    whole = size - (size - magic) % _FRAME.itemsize if size > magic else 0
    if whole < size and CHECKPOINT_MAGIC.startswith(data[:magic]) and (
            size <= magic or _RECORD_LENGTH.startswith(
                data[whole:whole + len(_RECORD_LENGTH)])):
        return data[:whole if whole > magic else 0]
    return data


def read_checkpoint(path: str, spec: GridSpec) -> np.ndarray:
    """The records of the checkpoint file at path, written by a scan of
    spec, in file order, as a structured array with one entry per record:
    its grid index ("index") and its seven values ("values"). The file is
    read as it is, and checked as a resume checks it (_read_records)."""
    with open(path, "rb") as fh:
        return _read_records(fh.read(), spec, path)


def _read_records(data: bytes, spec: GridSpec, path: str) -> np.ndarray:
    """The records of data, the bytes of the checkpoint at path, as
    read_checkpoint returns them.

    Every record must sit on spec's grid at its index, no index may
    repeat, and the spec fingerprint stored after the magic must be
    spec's, RECORD_VERSION included; CheckpointError names path and the
    first mismatch, and is raised for bytes without the fingerprint, whose
    records nothing ties to a scan.
    """
    magic, body = data[:len(CHECKPOINT_MAGIC)], data[len(CHECKPOINT_MAGIC):]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
    frames = np.frombuffer(body, _FRAME, len(body) // _FRAME.itemsize)
    if len(body) % _FRAME.itemsize or (frames["length"] != _RECORD_LENGTH).any():
        raise CheckpointError(f"truncated or missized record in {path}")
    if not len(frames) or frames["index"][0] != _SPEC_INDEX:
        raise CheckpointError(
            f"{path}: no spec fingerprint record after the magic, so its "
            f"records cannot be checked against the scan")
    written, frames = frames["values"][0].tolist(), frames[1:]
    _check_grid(spec, frames["index"], frames["values"], path)
    # the indices are on the grid by now, so one count per grid point finds
    # a repeat; the hash-based np.unique raises peak memory on first use
    repeated = np.flatnonzero(np.bincount(frames["index"]) > 1)
    if repeated.size:
        raise CheckpointError(
            f"{path}: holds grid index {repeated[0]} more than once")
    want = _fingerprint(spec)
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
    return frames


def check_destination(destination: str | None) -> None:
    """Raise, before any work, the OSError naming destination that
    write_rows would meet for want of a place to write it: a directory
    that is missing, is not one or is not writable, or a destination that
    is empty or is itself a directory. None, stdout, needs no check."""
    if destination is None:
        return
    directory = os.path.dirname(destination) or "."
    if not destination:
        code = errno.ENOENT
    elif os.path.isdir(destination):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), destination)


def write_rows(destination: str | None, head, rows) -> None:
    """Write a CSV table: the lines of head, the last of them the column
    names, then one line per row of values, each value at 17 significant
    digits. Every CSV the program writes goes through here.

    Without a destination the lines stream to stdout. Otherwise they go to
    a temporary file beside destination, which then replaces destination
    in one step, so a failed write leaves any earlier file whole. An
    OSError names destination, not the temporary file.
    """
    row = ",".join(["%.17g"] * (head[-1].count(",") + 1)) + "\n"
    lines = itertools.chain((line + "\n" for line in head),
                            map(row.__mod__, rows))
    if destination is None:
        sys.stdout.writelines(lines)
        return
    tmp = f"{destination}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(lines)
        os.replace(tmp, destination)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, destination) from exc
    finally:
        if os.path.exists(tmp):     # the write failed part-way
            os.remove(tmp)


def write_csv(table: np.ndarray, destination: str) -> None:
    """Write the phase map, run_grid's (n_points, 7) table, through
    write_rows, each value as a Python float."""
    write_rows(destination, [CSV_COMMENT, CSV_HEADER],
               map(tuple, table.tolist()))

