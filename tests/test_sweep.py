import os

import numpy as np
import pytest

from spindtc.errors import ShapeError, CheckpointError
from spindtc.hilbert import SystemShape
from spindtc import floquet
from spindtc.sweep import (GridSpec, PhaseMapRecord, compute_point, run_grid,
                           read_checkpoint, write_csv, read_csv, worker_count,
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


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv("DTC_WORKERS", "2")
    assert worker_count(8) == 2
    assert worker_count(1) == 1
    monkeypatch.delenv("DTC_WORKERS")
    assert worker_count(3) == 3


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
