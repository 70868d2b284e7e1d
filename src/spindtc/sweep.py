"""Parallel (lambda, g) grid scans with CSV output and binary checkpoints.

Grid points are independent trajectories from the x-polarized initial state,
so the scan is embarrassingly parallel; results are gathered into row-major
order (lambda outer, g inner) regardless of completion order, making output
bitwise identical for any worker count. Every point is computed on the
collective layout (hilbert.CollectiveShape). Checkpoints let an interrupted
scan resume without recomputing finished points.
"""

import csv
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError, CheckpointError
from .hilbert import SystemShape, CollectiveShape, x_polarized_state
from .floquet import DriveParams, precompute, evolve
from .observables import make_recorder
from .diagnostics import stroboscopic_average, relative_order_parameter

CHECKPOINT_MAGIC = b"DTC1"
CSV_HEADER = "lambda,g,avg_m_sat,avg_m_c,avg_entropy,o_rel_sat,o_rel_c"
CSV_COMMENT = ("# avg_entropy is the mean central-satellite entanglement "
               "entropy over every period 1..periods")

_RECORD_STRUCT = struct.Struct("<I7d")   # grid index + seven float64 fields
_RECORD_LENGTH = struct.pack("<I", _RECORD_STRUCT.size)   # each record's prefix
_RECORD_BYTES = len(_RECORD_LENGTH) + _RECORD_STRUCT.size


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan: ranges are (lo, hi, steps), endpoints included."""

    lambda_range: tuple[float, float, int]
    g_range: tuple[float, float, int]
    shape: SystemShape
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


def compute_point(shape: SystemShape, lam: float, g: float,
                  periods: int, stride: int) -> PhaseMapRecord:
    """One trajectory from the x-polarized state, reduced to map averages."""
    state = x_polarized_state(shape)
    tables = precompute(shape, DriveParams.symmetric(lam, g))
    traj = evolve(state, tables, periods, make_recorder(state.copy()))
    m_sat = [0.5] + [r.m_sat_x for r in traj]   # index by period number
    m_c = [shape.s] + [r.m_c_x for r in traj]
    count = periods // stride
    avg_m_sat = stroboscopic_average(m_sat, stride, count)
    avg_m_c = stroboscopic_average(m_c, stride, count)
    avg_entropy = float(np.mean([r.entropy for r in traj]))
    _, _, o_rel_sat = relative_order_parameter(m_sat, periods)
    _, _, o_rel_c = relative_order_parameter(m_c, periods)
    return PhaseMapRecord(lam=lam, g=g, avg_m_sat=avg_m_sat, avg_m_c=avg_m_c,
                          avg_entropy=avg_entropy, o_rel_sat=o_rel_sat,
                          o_rel_c=o_rel_c)


def _point_task(args) -> tuple[int, PhaseMapRecord]:
    index, n_sat, two_s, lam, g, periods, stride = args
    return index, compute_point(CollectiveShape(n_sat, two_s), lam, g,
                                periods, stride)


def worker_count(requested: int | None = None) -> int:
    """Requested workers, capped by the DTC_WORKERS environment variable."""
    n = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get("DTC_WORKERS")
    if cap is not None:
        n = min(n, max(1, int(cap)))
    return max(1, n)


def run_grid(spec: GridSpec, workers: int | None = None,
             checkpoint_path: str | None = None) -> list[PhaseMapRecord]:
    """Scan the grid, row-major (lambda outer, g inner).

    With checkpoint_path, finished points are appended to the checkpoint as
    they complete and a restart skips them. A trailing record cut short by a
    crash mid-write is dropped from the file and its point recomputed; a
    record whose (lambda, g) is not this grid's raises CheckpointError.
    """
    lams = spec.axis("lambda")
    gs = spec.axis("g")
    done: dict[int, PhaseMapRecord] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        # appending after a cut record would corrupt the file for good
        _drop_cut_record(checkpoint_path)
        records = read_checkpoint(checkpoint_path)
        _check_grid(spec, records, checkpoint_path)
        done = dict(records)
    tasks = []
    for i, lam in enumerate(lams):
        for j, g in enumerate(gs):
            index = i * len(gs) + j
            if index in done:
                continue
            tasks.append((index, spec.shape.n_sat, spec.shape.two_s,
                          float(lam), float(g), spec.periods, spec.stride))
    nworkers = worker_count(workers)
    ckpt = open(checkpoint_path, "ab") if checkpoint_path else None
    try:
        if ckpt is not None and ckpt.tell() == 0:
            ckpt.write(CHECKPOINT_MAGIC)
        if nworkers == 1 or len(tasks) <= 1:
            results = map(_point_task, tasks)
            for index, rec in results:
                done[index] = rec
                if ckpt is not None:
                    _write_checkpoint_record(ckpt, index, rec)
        else:
            with ProcessPoolExecutor(max_workers=nworkers) as pool:
                for index, rec in pool.map(_point_task, tasks):
                    done[index] = rec
                    if ckpt is not None:
                        _write_checkpoint_record(ckpt, index, rec)
    finally:
        if ckpt is not None:
            ckpt.close()
    if len(done) != spec.n_points:
        raise CheckpointError(
            f"checkpoint holds {len(done)} records for a {spec.n_points}-point grid")
    return [done[i] for i in range(spec.n_points)]


def _record_values(rec: PhaseMapRecord) -> list[float]:
    return [getattr(rec, f.name) for f in fields(PhaseMapRecord)]


def _write_checkpoint_record(fh, index: int, rec: PhaseMapRecord) -> None:
    payload = _RECORD_STRUCT.pack(index, *_record_values(rec))
    fh.write(struct.pack("<I", len(payload)))
    fh.write(payload)
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
    rejects every other malformation."""
    size = os.path.getsize(path)
    magic = len(CHECKPOINT_MAGIC)
    if size < magic:
        return
    whole = size - (size - magic) % _RECORD_BYTES
    if whole == size:
        return
    with open(path, "rb") as fh:
        head = fh.read(magic)
        fh.seek(whole)
        tail = fh.read(len(_RECORD_LENGTH))
    if head == CHECKPOINT_MAGIC and _RECORD_LENGTH.startswith(tail):
        os.truncate(path, whole)


def read_checkpoint(path: str) -> list[tuple[int, PhaseMapRecord]]:
    """Parse a checkpoint file into (grid index, record) pairs."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
        out = []
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) < 4:
                raise CheckpointError(f"truncated record length in {path}")
            (length,) = struct.unpack("<I", head)
            payload = fh.read(length)
            if len(payload) < length or length != _RECORD_STRUCT.size:
                raise CheckpointError(f"truncated or missized record in {path}")
            index, *vals = _RECORD_STRUCT.unpack(payload)
            out.append((index, PhaseMapRecord(*vals)))
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(records: list[PhaseMapRecord], destination: str) -> None:
    """Write the phase map; floats carry 17 significant digits."""
    with open(destination, "w", newline="") as fh:
        fh.write(CSV_COMMENT + "\n")
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in _record_values(rec)) + "\n")


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
