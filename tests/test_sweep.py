import os

import numpy as np
import pytest

from spindtc.errors import ShapeError, CheckpointError
from spindtc.hilbert import SystemShape
from spindtc import cli
from spindtc import floquet
from spindtc.sweep import (GridSpec, PhaseMapRecord, compute_point, run_grid,
                           read_checkpoint, write_csv, read_csv,
                           CHECKPOINT_MAGIC, _point_task,
                           _write_checkpoint_record)


def _small_spec(periods=16, stride=2):
    return GridSpec((0.0, 2 * np.pi, 3), (0.1, np.pi, 3),
                    SystemShape(3, 1), periods, stride)


def test_grid_spec_validation():
    sh = SystemShape(3, 1)
    with pytest.raises(ShapeError):
        GridSpec((0, 1, 0), (0, 1, 2), sh, 10, 2)
    with pytest.raises(ShapeError):
        GridSpec((1, 0, 2), (0, 1, 2), sh, 10, 2)
    with pytest.raises(ShapeError):
        GridSpec((0, 1, 2), (0, 1, 2), sh, 1, 2)


def test_grid_axes_and_count():
    spec = _small_spec()
    assert spec.n_points == 9
    assert len(spec.axis("lambda")) == 3
    assert spec.axis("g")[0] == pytest.approx(0.1)


def test_run_grid_row_major_order():
    spec = _small_spec()
    records = run_grid(spec, workers=1)
    assert len(records) == 9
    lams = spec.axis("lambda")
    gs = spec.axis("g")
    for i, lam in enumerate(lams):
        for j, g in enumerate(gs):
            rec = records[i * 3 + j]
            assert rec.lam == pytest.approx(lam)
            assert rec.g == pytest.approx(g)


def test_worker_determinism():
    spec = _small_spec()
    r1 = run_grid(spec, workers=1)
    r2 = run_grid(spec, workers=2)
    r8 = run_grid(spec, workers=8)
    assert r1 == r2 == r8


def _criterion_11_subgrid(lambda_every, g_every):
    # every lambda_every-th lambda and g_every-th g of criterion 11's
    # 65 x 33 grid over [0, 4pi] x [0, 2pi] at (8, 2), 200 periods
    return GridSpec((0.0, 4 * np.pi, 64 // lambda_every + 1),
                    (0.0, 2 * np.pi, 32 // g_every + 1),
                    SystemShape(8, 4), 200, 2)


def test_row_independent_of_batch():
    # 17 x 17 = 289 points: two stacks, of 256 and 33 rows
    spec = _criterion_11_subgrid(4, 2)
    records = run_grid(spec)
    lams, gs = spec.axis("lambda"), spec.axis("g")
    for i, j in ((4, 4), (12, 12), (8, 0), (16, 13)):
        index = i * len(gs) + j
        lam, g = float(lams[i]), float(gs[j])
        alone = compute_point(SystemShape(8, 4), lam, g, 200, 2)
        assert alone == records[index]
        assert _point_task((index, 8, 4, lam, g, 200, 2)) == (index, alone)
    # criterion 11's own 65 x 33 axes give the same rows bitwise
    assert compute_point(SystemShape(8, 4), float(np.linspace(0, 4 * np.pi, 65)[16]),
                         float(np.linspace(0, 2 * np.pi, 33)[24]), 200, 2) \
        == records[4 * len(gs) + 12]


def test_resume_mid_chunk(tmp_path):
    # the checkpoint holds the fingerprint and the first 100 of 289 records:
    # the fresh run's stacks were points 0-255 and 256-288, the resume's
    # one stack is points 100-288, and every row must come out the same
    spec = _criterion_11_subgrid(4, 2)
    path = tmp_path / "mid.bin"
    fresh = run_grid(spec, checkpoint_path=str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:len(CHECKPOINT_MAGIC) + 64 * 101])
    assert len(read_checkpoint(str(path))) == 100
    assert run_grid(spec, checkpoint_path=str(path)) == fresh
    assert path.read_bytes() == whole


def test_disentangled_column_at_lambda_2pi():
    sh = SystemShape(5, 3)
    for g in (0.3, 1.1, 2.0, 3.0):
        rec = compute_point(sh, 2 * np.pi, g, 24, 2)
        assert rec.avg_entropy < 1e-8


def test_special_point_revival_average():
    rec = compute_point(SystemShape(8, 5), np.pi, np.pi / 2, 24, 12)
    assert rec.avg_m_sat == pytest.approx(0.5, abs=1e-8)


def test_csv_round_trip(tmp_path):
    spec = _small_spec()
    records = run_grid(spec, workers=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(records, str(p1))
    back = read_csv(str(p1))
    write_csv(back, str(p2))
    assert p1.read_text() == p2.read_text()
    assert back == records


def test_csv_empty_and_errors(tmp_path):
    p = tmp_path / "empty.csv"
    write_csv([], str(p))
    text = p.read_text().splitlines()
    assert text[0].startswith("#")
    assert text[1] == "lambda,g,avg_m_sat,avg_m_c,avg_entropy,o_rel_sat,o_rel_c"
    assert read_csv(str(p)) == []
    bad = tmp_path / "bad.csv"
    bad.write_text(text[1] + "\n1,2,3\n")
    with pytest.raises(CheckpointError) as err:
        read_csv(str(bad))
    assert ":2:" in str(err.value)
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("a,b\n")
    with pytest.raises(CheckpointError):
        read_csv(str(nohdr))


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    rec = PhaseMapRecord(1.0, 2.0, 0.25, -0.5, 0.01, 0.1, -0.1)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        _write_checkpoint_record(fh, 7, rec)
    assert read_checkpoint(str(path)) == [(7, rec)]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE")
    with pytest.raises(CheckpointError):
        read_checkpoint(str(bad))
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(CHECKPOINT_MAGIC + b"\x3c\x00\x00\x00\x01")
    with pytest.raises(CheckpointError):
        read_checkpoint(str(trunc))


def test_checkpoint_resume_no_recompute(tmp_path):
    spec = _small_spec()
    full = run_grid(spec, workers=1)
    path = str(tmp_path / "resume.bin")
    lams = spec.axis("lambda")
    gs = spec.axis("g")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for index in range(5):
            i, j = divmod(index, 3)
            task = (index, 3, 1, float(lams[i]), float(gs[j]),
                    spec.periods, spec.stride)
            _write_checkpoint_record(fh, *_point_task(task))
    floquet.reset_op_count()
    resumed = run_grid(spec, workers=1, checkpoint_path=path)
    ops_resumed = floquet.op_count()
    floquet.reset_op_count()
    run_grid(spec, workers=1)
    ops_full = floquet.op_count()
    assert resumed == full
    # only 4 of 9 points were recomputed
    assert ops_full > 0
    assert ops_resumed == pytest.approx(ops_full * 4 / 9, rel=1e-12)


def test_checkpoint_written_during_run(tmp_path):
    spec = _small_spec()
    path = str(tmp_path / "fresh.bin")
    records = run_grid(spec, workers=1, checkpoint_path=path)
    stored = dict(read_checkpoint(path))
    assert [stored[i] for i in range(9)] == records


@pytest.mark.parametrize("kept", [2, 34])
def test_resume_from_cut_record(tmp_path, kept):
    # a crash mid-write leaves the last record cut after `kept` of its 64
    # bytes; the resume drops it, recomputes that point and leaves the file
    # whole, byte for byte as an uninterrupted run writes it
    spec = _small_spec()
    path = tmp_path / "cut.bin"
    fresh = run_grid(spec, workers=1, checkpoint_path=str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) - 64 + kept])
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))
    floquet.reset_op_count()
    resumed = run_grid(spec, workers=1, checkpoint_path=str(path))
    assert resumed == fresh
    assert floquet.op_count() > 0
    assert path.read_bytes() == whole
    assert len(read_checkpoint(str(path))) == spec.n_points


def test_resume_rejects_checkpoint_of_another_grid(tmp_path):
    ckpt = tmp_path / "other.bin"
    path = str(ckpt)
    run_grid(GridSpec((0.0, 2 * np.pi, 3), (0.2, np.pi, 3), SystemShape(3, 1),
                      16, 2), workers=1, checkpoint_path=path)
    written = ckpt.read_bytes()
    other = GridSpec((1.0, 3.0, 3), (0.5, 1.5, 3), SystemShape(5, 1), 16, 2)
    with pytest.raises(CheckpointError, match="record 0 is at"):
        run_grid(other, workers=1, checkpoint_path=path)
    # same axes on a smaller grid: records 0..5 fit, record 6 does not
    smaller = GridSpec((0.0, np.pi, 2), (0.2, np.pi, 3), SystemShape(3, 1), 16, 2)
    with pytest.raises(CheckpointError, match="index 6 is outside"):
        run_grid(smaller, workers=1, checkpoint_path=path)
    assert ckpt.read_bytes() == written


@pytest.mark.parametrize("n_sat,spin,periods,stride", [
    (6, "2", 40, 4), (4, "1/2", 16, 2), (3, "1", 16, 2), (3, "1/2", 18, 2),
    (3, "1/2", 16, 4)])
def test_resume_rejects_checkpoint_of_another_spec(tmp_path, n_sat, spin,
                                                   periods, stride):
    # same axes, so every record sits on the grid; only the fingerprint
    # record after the magic tells the scans apart from the (3, 1/2) one
    path = str(tmp_path / "spec.bin")
    axes = ((0.5, 2.0, 2), (0.3, 1.0, 2))
    run_grid(GridSpec(*axes, SystemShape(3, 1), 16, 2), checkpoint_path=path)
    written = (tmp_path / "spec.bin").read_bytes()
    shape = SystemShape(n_sat, cli.parse_spin(spin))
    with pytest.raises(CheckpointError, match="written for"):
        run_grid(GridSpec(*axes, shape, periods, stride), checkpoint_path=path)
    assert cli.parse_and_dispatch([
        "sweep", "--n-sat", str(n_sat), "--spin", spin,
        "--lambda-min", "0.5", "--lambda-max", "2.0", "--lambda-steps", "2",
        "--g-min", "0.3", "--g-max", "1.0", "--g-steps", "2",
        "--periods", str(periods), "--stride", str(stride),
        "--checkpoint", path, "--output", str(tmp_path / "out.csv")]) == 1
    assert (tmp_path / "spec.bin").read_bytes() == written


def test_csv_write_is_atomic(tmp_path):
    path = tmp_path / "map.csv"
    records = run_grid(_small_spec())
    write_csv(records, str(path))
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_csv(records[:4] + [None] + records[4:], str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["map.csv"]
