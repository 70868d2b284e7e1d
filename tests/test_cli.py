import errno
import io
import itertools
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from spindtc.cli import (parse_angle, parse_spin, parse_int_list, read_config,
                         build_parser, parse_and_dispatch)
from spindtc.floquet import precompute, evolve
from spindtc.hilbert import CollectiveShape, x_polarized_state
from spindtc.observables import trajectory_columns
from spindtc.metrology import qfi_scan
from spindtc.sweep import CHECKPOINT_MAGIC, RECORD_VERSION
from spindtc.spin_algebra import coherent_axis_state
from spindtc import (analytic_states, hilbert, metrology, cli, sweep,
                     observables)

from qubit_reference import product_state
from test_sweep import _PARITY_CLASSES


def test_parse_angle_forms():
    assert parse_angle("1.5") == pytest.approx(1.5)
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("2pi") == pytest.approx(2 * np.pi)
    assert parse_angle("0.5pi") == pytest.approx(np.pi / 2)
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("3pi/2") == pytest.approx(3 * np.pi / 2)
    assert parse_angle("-pi") == pytest.approx(-np.pi)
    import argparse
    for text in ("two pies", "2pix", "pi/2x"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "nanpi",
                                  "1e400pi", "1e308pi", "2pi/0", "pi/0.0",
                                  "pi/nan", "pi/inf"])
def test_parse_angle_rejects_non_finite_angles(text):
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle(text)


def test_non_finite_angles_exit_2(tmp_path, capsys):
    # through every angle flag and through --config, before any state is
    # evolved or any file written
    out = str(tmp_path / "out.csv")
    shape = ["--n-sat", "3", "--spin", "1/2"]
    for value in ("nan", "inf", "1e400", "2pi/0"):
        for argv in (["evolve", *shape, "--lambda", value, "--g", "1",
                      "--periods", "4", "--output", out],
                     ["sweep", *shape, "--lambda-max", value, "--lambda-steps", "2",
                      "--g-steps", "2", "--periods", "4", "--output", out],
                     ["qfi", *shape, "--lambda", value, "--g", "1",
                      "--periods-list", "4", "--output", out]):
            assert parse_and_dispatch(argv) == 2, argv
        cfg = tmp_path / "angle.cfg"
        cfg.write_text(f"g={value}\n")
        assert parse_and_dispatch(["--config", str(cfg), "evolve", *shape,
                                   "--lambda", "1", "--periods", "4",
                                   "--output", out]) == 2
    assert not os.path.exists(out)
    assert "Traceback" not in capsys.readouterr().err


def test_parse_spin_forms():
    assert parse_spin("1/2") == 1
    assert parse_spin("2") == 4
    assert parse_spin("5/2") == 5
    import argparse
    for bad in ("0", "2/3", "4/2", "-1/2", "x"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_spin(bad)


def test_parse_int_list():
    assert parse_int_list("8,16,24") == [8, 16, 24]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_int_list("1,a")


def test_read_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nn-sat = 9\nspin=5/2\n\nperiods = 12\n")
    cfg = read_config(str(p))
    assert cfg == {"n_sat": "9", "spin": "5/2", "periods": "12"}


def test_evolve_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = parse_and_dispatch(["evolve", "--n-sat", "9", "--spin", "5/2",
                               "--lambda", "2pi", "--g", "3.0",
                               "--periods", "8", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m_sat_x,m_c_x,entropy,fidelity"
    assert len(lines) == 9
    for line in lines[1:]:
        n, _, _, _, fid = line.split(",")
        if int(n) % 2 == 0:
            assert float(fid) == pytest.approx(1.0, abs=1e-10)


def test_evolve_beyond_the_full_engine(tmp_path):
    # 41 satellites: 2^41 amplitudes for the full engine, 42 x 6 collectively;
    # criterion 01's exact values hold at every even period
    out = tmp_path / "traj.csv"
    code = parse_and_dispatch(["evolve", "--n-sat", "41", "--spin", "5/2",
                               "--lambda", "2pi", "--g", "3.0",
                               "--periods", "200", "--output", str(out)])
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 200
    for n, m_sat, m_c, entropy, fid in rows:
        if n % 2 == 0:
            assert abs(fid - 1.0) < 1e-10
            assert abs(m_sat - 0.5) < 1e-10
            assert abs(m_c - 2.5) < 1e-10
            assert entropy < 1e-10
    # the rows come from the closed form; the engine drives the same shape
    # to them, within its rounding, which grows with the periods (8.6e-13
    # at 200 here)
    shape = CollectiveShape(41, 5)
    engine = evolve(x_polarized_state(shape),
                    precompute(shape, 2 * np.pi, 3.0, 3.0),
                    200, trajectory_columns)
    np.testing.assert_allclose(rows, np.column_stack((np.arange(1, 201),
                                                      *engine)),
                               rtol=0, atol=2e-12)


def test_evolve_zero_periods(tmp_path):
    out = tmp_path / "empty.csv"
    code = parse_and_dispatch(["evolve", "--n-sat", "2", "--spin", "1/2",
                               "--lambda", "1", "--g", "1",
                               "--periods", "0", "--output", str(out)])
    assert code == 0
    assert out.read_text() == "n,m_sat_x,m_c_x,entropy,fidelity\n"


def _evolve_rows(tmp_path, shape, lam, g, periods):
    """The rows evolve writes at lam, a float or an angle string."""
    out = tmp_path / "traj.csv"
    lam = lam if isinstance(lam, str) else repr(lam)
    assert parse_and_dispatch(["evolve", "--n-sat", str(shape.n_sat),
                               "--spin", cli._spin_text(shape.two_s),
                               f"--lambda={lam}", "--g", repr(g),
                               "--periods", str(periods),
                               "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.TRAJECTORY_HEADER and len(lines) == periods + 1
    return np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]]).reshape(periods, 5)


def _count_engine(monkeypatch):
    """Names of the engine calls evolve and classify make: through
    observables.series for evolve, directly for classify."""
    calls = []
    for module, name in itertools.product((cli, observables),
                                          ("evolve", "precompute")):
        def counted(*args, _name=name, _real=getattr(module, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


# --lambda values on the closed-form lines, and the line each is on mod 4pi
_LINES = {"0": "0", "2pi": "2pi", "4pi": "0", "8pi": "0", "-4pi": "0",
          "6pi": "2pi", "-2pi": "2pi"}


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
@pytest.mark.parametrize("lam", list(_LINES))
def test_evolve_on_lambda_0_and_2pi_is_the_closed_form(tmp_path, monkeypatch,
                                                       shape, lam):
    # evolve writes the closed form there without driving the engine: rows
    # within 1e-12 of floquet.evolve's at the given lambda, the entropy
    # exactly 0 and every value inside its range, which the engine's
    # rounding leaves (m_c_x 2.5000000000000053 and fidelity
    # 1.0000000000000022 at (9, 5/2)). A lambda on a line mod 4pi writes
    # bitwise the line's rows
    calls = _count_engine(monkeypatch)
    for g in (0.0, 0.3, 1.1, 3.0, np.pi / 2, np.pi, 5.9, -2.0):
        rows = _evolve_rows(tmp_path, shape, lam, g, 60)
        assert rows.tobytes() == \
            _evolve_rows(tmp_path, shape, _LINES[lam], g, 60).tobytes()
        engine = evolve(x_polarized_state(shape),
                        precompute(shape, parse_angle(lam), g, g),
                        60, trajectory_columns)
        np.testing.assert_allclose(rows, np.column_stack((np.arange(1, 61),
                                                          *engine)),
                                   rtol=0, atol=1e-12)
        assert (rows[:, 0] == np.arange(1, 61)).all()
        assert (rows[:, 3] == 0.0).all()
        assert (abs(rows[:, 1]) <= 0.5).all()
        assert (abs(rows[:, 2]) <= shape.s).all()
        assert ((rows[:, 4] >= 0.0) & (rows[:, 4] <= 1.0)).all()
        assert _evolve_rows(tmp_path, shape, lam, g, 0).size == 0
    assert calls == []


def test_evolve_off_the_closed_form_lines_drives_the_engine(tmp_path,
                                                            monkeypatch):
    # one ulp off 0, 2pi or 4pi the interaction is no product of pi turns,
    # and the engine drives the start, once per command
    calls = _count_engine(monkeypatch)
    shape = CollectiveShape(9, 5)
    for lam in (np.nextafter(2 * np.pi, 0.0), np.nextafter(2 * np.pi, 7.0),
                np.nextafter(0.0, 1.0), np.nextafter(4 * np.pi, 0.0),
                np.nextafter(4 * np.pi, 13.0)):
        _evolve_rows(tmp_path, shape, float(lam), 3.0, 8)
    assert calls == ["precompute", "evolve"] * 5
    for lam in ("2pi", "4pi", "-2pi", "6pi"):
        _evolve_rows(tmp_path, shape, lam, 3.0, 8)
    assert len(calls) == 10


def test_evolve_closed_form_validates_as_the_engine_path(tmp_path, capsys,
                                                        monkeypatch):
    # the same shape checks and exit codes on both paths, at a capacity of
    # 64 entries: 7 satellites run, 8 exit 1, a negative period count
    # exits 2
    monkeypatch.setattr(hilbert, "MAX_DIMENSION", 64)
    out = tmp_path / "traj.csv"
    for lam in ("2pi", "0", "1.0"):
        base = ["evolve", "--spin", "1/2", "--lambda", lam, "--g", "3.0",
                "--output", str(out)]
        assert parse_and_dispatch(base + ["--n-sat", "7", "--periods", "2"]) == 0
        assert len(out.read_text().splitlines()) == 3
        assert parse_and_dispatch(base + ["--n-sat", "8", "--periods", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: CollectiveShape(n_sat=8, two_s=1) needs an array of 81 "
            "entries, over the budget 64\n")
        assert parse_and_dispatch(base + ["--n-sat", "3",
                                          "--periods", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: n_periods must be >= 0, got -1\n"


def test_classify_lambda2pi_measures_on_the_engine(monkeypatch, capsys):
    # its measured line must not come from the closed form it is checked
    # against: classify drives the engine at lambda = 2pi
    calls = _count_engine(monkeypatch)
    assert parse_and_dispatch(["classify", "--n-sat", "9", "--spin", "5/2",
                               "--regime", "lambda2pi", "--periods", "40"]) == 0
    assert calls == ["precompute", "evolve"]
    assert "measured satellites " in capsys.readouterr().out


def test_classify_special(capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", "special"])
    assert code == 0
    assert "predicted 4, measured 4" in capsys.readouterr().out


@pytest.mark.parametrize("spin", ["1/2", "1", "2", "5/2"])
def test_classify_prints_the_spin_as_given(spin, capsys):
    # an integer spin prints as itself, not as 2s/2
    assert parse_and_dispatch(["classify", "--n-sat", "8", "--spin", spin,
                               "--regime", "lambda2pi", "--periods", "2"]) == 0
    assert capsys.readouterr().out.startswith(
        f"shape (8, s={spin}) at lambda=6.283185307, g=")


def test_classify_lambda_2pi(capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "9", "--spin", "5/2",
                               "--regime", "lambda2pi", "--periods", "12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eternal DTC" in out
    assert "measured satellites period doubling, central period doubling" in out


@pytest.mark.parametrize("regime", ["lambda2pi", "special", "regular1",
                                    "regular2"])
def test_classify_needs_a_period(regime, capsys):
    # the measurement needs one period beyond the start; a failed
    # measurement prints only its error
    code = parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", regime, "--periods", "0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert (out, err) == ("", "error: empty trajectory\n")


@pytest.mark.parametrize("regime", ["lambda2pi", "special", "regular1",
                                    "regular2"])
@pytest.mark.parametrize("epsilon", ["0", "2"])
def test_classify_rejects_epsilon_outside_0_1(regime, epsilon, capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", regime, "--epsilon", epsilon])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "epsilon must be in (0, 1)" in err


def test_classify_lambda2pi_needs_two_periods(capsys):
    # one period reads its verdict from the start alone; at (8, 2) it
    # would print period doubling for the table's sinusoidal motion
    code = parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", "lambda2pi", "--periods", "1"])
    assert (code, capsys.readouterr()) == (2, (
        "", "error: the taxonomy needs at least 2 periods, got 1\n"))
    assert parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", "lambda2pi", "--periods", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == \
        "measured satellites sinusoidal, central sinusoidal"


def test_classify_checks_the_shape_first(capsys):
    # CollectiveShape's own checks run before the regime's table is read
    code = parse_and_dispatch(["classify", "--n-sat", "0", "--spin", "2",
                               "--regime", "special"])
    assert (code, capsys.readouterr()) == (2, (
        "", "error: n_sat must be a positive integer, got 0\n"))


def test_classify_not_tabulated(capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "9", "--spin", "2",
                               "--regime", "regular1"])
    assert code == 2


def test_classify_regular_prints_the_class_note(capsys):
    assert parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", "regular1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "shape (8, s=2) at lambda=3.141592654, g=0.7853981634",
        "predicted 24, measured 24",
        "note: which regular class sits at which drive point is reported "
        "as measured, not asserted"]


def test_sweep_and_config(tmp_path):
    out = tmp_path / "map.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n-sat=3\nspin=1/2\nlambda-steps=2\ng-steps=2\n"
                   "lambda-min=0\nlambda-max=pi\ng-min=0.3\ng-max=1.1\n"
                   "periods=8\nstride=2\nworkers=1\n")
    code = parse_and_dispatch(["--config", str(cfg), "sweep",
                               "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6   # comment + header + 4 records
    # flags override config
    out2 = tmp_path / "map2.csv"
    code = parse_and_dispatch(["--config", str(cfg), "sweep", "--g-steps", "3",
                               "--output", str(out2)])
    assert code == 0
    assert len(out2.read_text().splitlines()) == 8


def test_config_errors_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    argv = ["--config", str(cfg), "evolve", "--n-sat", "2", "--spin", "1/2",
            "--g", "1", "--periods", "0"]
    cfg.write_text("lam=1\ncolour=blue\n")
    assert parse_and_dispatch(argv) == 2
    cfg.write_text("lam=two pies\n")
    assert parse_and_dispatch(argv) == 2
    cfg.write_text("lam 1\n")
    assert parse_and_dispatch(argv) == 2
    cfg.write_text("lam=1\n")
    assert parse_and_dispatch(argv) == 0
    cfg.write_text("regime=bogus\n")
    assert parse_and_dispatch(["--config", str(cfg), "classify",
                               "--n-sat", "8", "--spin", "2"]) == 2


def test_sweep_rejects_checkpoint_of_another_grid(tmp_path, capsys):
    ckpt = str(tmp_path / "map.ckpt")
    argv = ["sweep", "--n-sat", "3", "--spin", "1/2", "--lambda-steps", "2",
            "--g-steps", "2", "--periods", "4", "--workers", "1",
            "--checkpoint", ckpt, "--output", str(tmp_path / "map.csv")]
    assert parse_and_dispatch(argv) == 0
    assert parse_and_dispatch(argv + ["--g-min", "0.5"]) == 1
    assert "another grid" in capsys.readouterr().err


def test_sweep_rejects_checkpoint_of_another_record_version(tmp_path, capsys):
    # the fingerprint's last field is the version of the stored values: a
    # checkpoint with 0 there, as every version before the field was read
    # wrote, with 1, whose coherent states came from an eigensolver, with
    # 2, whose fold evolved the g = 0 line, with 3, which evolved the
    # (0, 0) record, or with 4, which evolved the lambda = 0 and 2pi lines,
    # exits 1 naming both versions, and --output is not written
    ckpt, out = tmp_path / "map.ckpt", tmp_path / "map.csv"
    argv = ["sweep", "--n-sat", "3", "--spin", "1/2", "--lambda-steps", "3",
            "--g-steps", "2", "--periods", "4", "--checkpoint", str(ckpt),
            "--output", str(out)]
    assert RECORD_VERSION == 5
    for old in (0, 1, 2, 3, 4):
        assert parse_and_dispatch(argv) == 0
        # the magic, then the fingerprint record's length, index and 7 doubles
        field = len(CHECKPOINT_MAGIC) + 8 + 6 * 8
        data = bytearray(ckpt.read_bytes())
        assert struct.unpack_from("<d", data, field) == (RECORD_VERSION,)
        struct.pack_into("<d", data, field, float(old))
        ckpt.write_bytes(data)
        out.unlink()
        capsys.readouterr()
        assert parse_and_dispatch(argv) == 1
        assert capsys.readouterr() == ("", (
            f"error: {ckpt}: holds records of version {old}, this version "
            f"writes {RECORD_VERSION}; its values may differ from a fresh "
            f"scan's, so the scan must start afresh\n"))
        assert not out.exists() and ckpt.read_bytes() == data
        ckpt.unlink()


def test_sweep_reports_computed_mirrored_and_resumed_points(tmp_path, capsys):
    # the 9 x 5 grid over [0, 4pi] x [0, 2pi] folds onto 6 canonical points
    # at (3, 1/2), stride 2: 5 lambdas in [0, 2pi] at g = pi/2, and (0, 0)
    # for the g = 0 line; a resume from the checkpoint with its last record
    # cut evolves none
    ckpt, out = tmp_path / "map.ckpt", tmp_path / "map.csv"
    argv = ["sweep", "--n-sat", "3", "--spin", "1/2", "--lambda-steps", "9",
            "--g-steps", "5", "--periods", "4", "--checkpoint", str(ckpt),
            "--output", str(out)]
    assert parse_and_dispatch(argv) == 0
    assert capsys.readouterr() == (
        f"wrote 45 records to {out}\n",
        "computed 6 of 45 points (39 by symmetry, 0 resumed)\n")
    csv = out.read_bytes()
    ckpt.write_bytes(ckpt.read_bytes()[:-32])
    assert parse_and_dispatch(argv) == 0
    assert capsys.readouterr().err == \
        "computed 0 of 45 points (1 by symmetry, 44 resumed)\n"
    assert out.read_bytes() == csv


def test_sweep_missing_output():
    assert parse_and_dispatch(["sweep", "--n-sat", "3", "--spin", "1/2"]) == 2


def test_sweep_rejects_an_empty_checkpoint_path(tmp_path, capsys,
                                                monkeypatch):
    # --checkpoint '' names no file, like --output '': the scan fails where
    # it opens the checkpoint, before any evolution, and prints no computed
    # line and writes no CSV
    calls = []
    monkeypatch.setattr(sweep, "series", lambda *args: calls.append(args))
    out = tmp_path / "map.csv"
    assert parse_and_dispatch(["sweep", "--n-sat", "2", "--spin", "1/2",
                               "--lambda-steps", "3", "--g-steps", "3",
                               "--periods", "4", "--checkpoint", "",
                               "--output", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: ''\n")
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_qfi_csv(tmp_path):
    out = tmp_path / "qfi.csv"
    code = parse_and_dispatch(["qfi", "--n-sat", "3", "--spin", "1/2",
                               "--lambda", "pi", "--g", "pi/2",
                               "--periods-list", "4,8", "--sizes", "2,3",
                               "--periods", "6", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_sat,two_s,n_periods,f_ll,f_gg,f_lg,g_scalar,gain"
    assert len(lines) == 5


def test_qfi_sizes_without_n_sat(tmp_path):
    out = tmp_path / "qfi.csv"
    code = parse_and_dispatch(["qfi", "--spin", "1/2", "--lambda", "pi",
                               "--g", "pi/2", "--sizes", "2,3", "--periods", "4",
                               "--output", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["2", "1", "4"], ["3", "1", "4"]]
    # --periods-list scans one size, so it still needs --n-sat
    assert parse_and_dispatch(["qfi", "--spin", "1/2", "--lambda", "pi",
                               "--g", "pi/2", "--periods-list", "4,8"]) == 2


def test_qfi_singular_row(tmp_path, capsys):
    # (3, 1/2) at n = 48 has f_gg = 0 exactly: the row is written with a
    # nan gain and no disagreement warning
    out = tmp_path / "qfi.csv"
    code = parse_and_dispatch(["qfi", "--n-sat", "3", "--spin", "1/2",
                               "--lambda", "pi", "--g", "pi/2", "--sizes", "3",
                               "--periods", "48", "--output", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(144.0, rel=1e-3)
    assert float(row[4]) == 0.0
    assert np.isnan(float(row[7]))
    assert "disagree" not in capsys.readouterr().err


def test_qfi_needs_a_scan(capsys):
    assert parse_and_dispatch(["qfi", "--n-sat", "3", "--spin", "2",
                               "--lambda", "pi", "--g", "pi/2"]) == 2
    assert capsys.readouterr() == (
        "", "error: need --periods-list and/or --sizes\n")


def test_qfi_warns_when_estimators_disagree(monkeypatch, tmp_path, capsys):
    # the sign of the d_lambda source flipped in the tangent path only (as
    # in test_metrology's tangent-fault test): the row is still written, and
    # the warning goes to stderr
    generators = metrology._generators
    monkeypatch.setattr(metrology, "_generators",
                        lambda shape: (generators(shape)[0], -generators(shape)[1]))
    out = tmp_path / "qfi.csv"
    assert parse_and_dispatch(["qfi", "--n-sat", "4", "--spin", "2",
                               "--lambda", "1.3", "--g", "0.7",
                               "--periods-list", "12", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
    assert capsys.readouterr() == ("", (
        "warning: estimators disagree beyond 1% of the matrix scale at "
        "(n_sat=4, n=12)\n"))


def test_states_listing(capsys):
    assert parse_and_dispatch(["states", "--n-sat", "9", "--spin", "5/2"]) == 0
    out = capsys.readouterr().out
    assert "odd_half" in out and "24" in out


def test_states_amplitudes(capsys):
    code = parse_and_dispatch(["states", "--n-sat", "2", "--spin", "1/2",
                               "--time", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "index,k_sat,l_c,re,im" in out


def test_states_bad_time():
    assert parse_and_dispatch(["states", "--n-sat", "9", "--spin", "5/2",
                               "--time", "7"]) == 2


def test_states_listing_needs_no_state(capsys):
    # listing works at any n_sat; printing 2^30 x 2 amplitudes is refused
    assert parse_and_dispatch(["states", "--n-sat", "30", "--spin", "1/2"]) == 0
    assert capsys.readouterr().out == \
        "parity case even_half; milestone times: 3, 6, 12\n"
    assert parse_and_dispatch(["states", "--n-sat", "30", "--spin", "1/2",
                               "--time", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2147483648 amplitudes, over the budget 67108864" in captured.err


def _product_milestone(n_sat, two_s, t):
    """The milestone as the superposition of 2^n product states that the
    coefficient tables describe."""
    case = analytic_states.parity_case_of(CollectiveShape(n_sat, two_s))
    sat_axis, cen_axis, coeffs = analytic_states._MILESTONES[case][t]
    if isinstance(coeffs, dict):
        coeffs = coeffs[(n_sat % 4, two_s % 4)]
    amps = sum(c * product_state([coherent_axis_state(1, sat_axis, sat)] * n_sat,
                                 coherent_axis_state(two_s, cen_axis, cen))
               for c, (sat, cen) in zip(coeffs, itertools.product("+-", repeat=2)))
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("n_sat,two_s", [
    (3, 2), (5, 2), (3, 4), (1, 4),     # odd_int, every (n_sat, 2s) mod 4 key
    (2, 1), (2, 3), (4, 1), (4, 3),     # even_half
    (3, 1), (3, 3), (1, 1), (5, 3),     # odd_half
    (2, 2), (4, 4)])                    # even_int
def test_states_match_product_states(capsys, n_sat, two_s):
    # states computes the milestone on the collective layout; its 2^n
    # printout equals the product-state superposition, every amplitude
    # printed is above 1e-12, and every part below it prints as 0
    case = analytic_states.parity_case_of(CollectiveShape(n_sat, two_s))
    d = two_s + 1
    for t in analytic_states.supported_time_indices(case):
        spin = f"{two_s}/2" if two_s % 2 else str(two_s // 2)
        assert parse_and_dispatch(["states", "--n-sat", str(n_sat), "--spin",
                                   spin, "--time", str(t)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"milestone at t={t}T, parity case {case}, "
                             f"dim {(1 << n_sat) * d}", "index,k_sat,l_c,re,im"]
        got = np.zeros((1 << n_sat) * d, dtype=complex)
        for line in lines[2:]:
            index, k_sat, l_c, re_part, im_part = line.split(",")
            assert int(index) == int(k_sat) * d + int(l_c)
            for part in (re_part, im_part):
                assert part == "0" or abs(float(part)) >= 1e-12
            got[int(index)] = complex(float(re_part), float(im_part))
        want = _product_milestone(n_sat, two_s, t)
        assert np.max(np.abs(got - want)) < 1e-11, (n_sat, two_s, t)
        assert np.all((got != 0) == (np.abs(want) >= 1e-12))


def test_invalid_flag_exit_code(capsys):
    assert parse_and_dispatch(["evolve", "--spin", "bogus"]) == 2


def _all_option_strings():
    parser = build_parser()
    opts = set()

    def walk(p):
        for action in p._actions:
            for s in action.option_strings:
                if s.startswith("--"):
                    opts.add(s)
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                for subparser in action.choices.values():
                    walk(subparser)
    walk(parser)
    opts.discard("--help")
    return opts


def test_readme_documents_every_flag():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "README.md")) as fh:
        readme = fh.read()
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    missing = _all_option_strings() - documented
    assert not missing, f"flags absent from README: {sorted(missing)}"


def test_qfi_time_scan_matches_single_rows(tmp_path):
    # one walk for the --periods-list scan, in the given order, repeats and
    # 0 included; every row bitwise as from its own one-count qfi_scan
    out = tmp_path / "qfi.csv"
    assert parse_and_dispatch(["qfi", "--n-sat", "6", "--spin", "2",
                               "--lambda", "1.3", "--g", "0.7",
                               "--periods-list", "40,8,0,8,24,3",
                               "--sizes", "3,5", "--output", str(out)]) == 0
    want = []
    for n_sat, n in [(6, 40), (6, 8), (6, 0), (6, 8), (6, 24), (6, 3),
                     (3, 48), (5, 48)]:
        q = qfi_scan([(CollectiveShape(n_sat, 4), [n])], 1.3, 0.7)[0][0]
        want.append(f"{n_sat},4,{n},{q.f_ll:.17g},{q.f_gg:.17g},"
                    f"{q.f_lg:.17g},{q.g_scalar:.17g},{q.gain:.17g}")
    assert out.read_text().splitlines()[1:] == want


def test_back_to_back_calls_share_nothing(tmp_path, capsys):
    evolve = ["evolve", "--n-sat", "3", "--spin", "1/2", "--lambda", "pi",
              "--g", "pi/2", "--periods", "2"]
    out = tmp_path / "traj.csv"
    assert parse_and_dispatch(evolve + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_and_dispatch(evolve) == 0
    assert capsys.readouterr().out == out.read_text()
    # a config's defaults stay with the call that named it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-sat=3\nspin=1/2\nlam=pi\ng=pi/2\nperiods=2\n")
    assert parse_and_dispatch(["--config", str(cfg), "evolve"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert parse_and_dispatch(["evolve"]) == 2
    assert "missing required option --n-sat" in capsys.readouterr().err


def test_sweep_resumes_from_empty_checkpoint(tmp_path):
    # a scan killed before its header reached the file leaves it empty
    argv = ["sweep", "--n-sat", "3", "--spin", "1/2", "--lambda-steps", "2",
            "--g-steps", "2", "--periods", "4"]
    fresh = tmp_path / "fresh.csv"
    assert parse_and_dispatch(argv + ["--output", str(fresh)]) == 0
    ckpt = tmp_path / "map.ckpt"
    ckpt.write_bytes(b"")
    out = tmp_path / "map.csv"
    assert parse_and_dispatch(argv + ["--checkpoint", str(ckpt),
                                      "--output", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kept", [1, 2, 3, 4])
def test_sweep_resumes_from_checkpoint_cut_in_its_magic(tmp_path, capsys, kept):
    # the magic and the fingerprint go out in one write, so a copy of a
    # finished checkpoint cut inside or right after the magic is a scan
    # killed before its header was whole: it starts afresh and writes the
    # fresh files
    argv = ["sweep", "--n-sat", "3", "--spin", "1/2", "--lambda-steps", "2",
            "--g-steps", "2", "--periods", "4"]
    fresh, fresh_ckpt = tmp_path / "fresh.csv", tmp_path / "fresh.ckpt"
    assert parse_and_dispatch(argv + ["--checkpoint", str(fresh_ckpt),
                                      "--output", str(fresh)]) == 0
    ckpt, out = tmp_path / "map.ckpt", tmp_path / "map.csv"
    ckpt.write_bytes(fresh_ckpt.read_bytes()[:kept])
    assert parse_and_dispatch(argv + ["--checkpoint", str(ckpt),
                                      "--output", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert ckpt.read_bytes() == fresh_ckpt.read_bytes()
    # a file that is no prefix of the magic is still rejected
    ckpt.write_bytes(b"XY")
    capsys.readouterr()
    assert parse_and_dispatch(argv + ["--checkpoint", str(ckpt),
                                      "--output", str(out)]) == 1
    assert "bad checkpoint magic" in capsys.readouterr().err
    assert ckpt.read_bytes() == b"XY"


def test_failed_qfi_leaves_output_untouched(tmp_path):
    # n_sat = 0 is rejected after n_sat = 3 was listed: no row is written,
    # the earlier file stays whole and no temporary file is left beside it
    out = tmp_path / "f.csv"
    out.write_bytes(b"earlier,contents\n")
    assert parse_and_dispatch(["qfi", "--spin", "2", "--lambda", "pi",
                               "--g", "pi/2", "--sizes", "3,0",
                               "--output", str(out)]) == 2
    assert out.read_bytes() == b"earlier,contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


@pytest.mark.parametrize("command", [
    ["evolve", "--n-sat", "2", "--spin", "1/2", "--lambda", "pi", "--g",
     "pi/2", "--periods", "4"],
    ["evolve", "--n-sat", "2", "--spin", "1/2", "--lambda", "2pi", "--g",
     "pi/2", "--periods", "4"],
    ["sweep", "--n-sat", "2", "--spin", "1/2", "--lambda-steps", "2",
     "--g-steps", "2", "--periods", "4"],
    ["qfi", "--spin", "1/2", "--lambda", "pi", "--g", "pi/2", "--sizes",
     "2", "--periods", "4"]],
    ids=lambda argv: argv[0] + ("-2pi" if "2pi" in argv else ""))
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty",
                                   "unwritable"])
def test_failed_output_write_names_the_output(tmp_path, capsys, monkeypatch,
                                              command, where):
    # the error names --output, not the temporary file the lines went to,
    # and no temporary file is left. The destination is checked before any
    # computation: no evolution or Fisher scan runs, sweep prints no
    # computed line and creates no checkpoint. An unwritable directory is
    # one os.access denies, as it would to a user other than root
    if where == "unwritable":
        def access(path, mode, *args, _real=os.access, **kw):
            return path != str(tmp_path) and _real(path, mode, *args, **kw)
        monkeypatch.setattr(os, "access", access)
    calls = []
    for module, name in ((cli, "series"), (sweep, "series"),
                         (observables, "evolve"), (cli, "qfi_scan")):
        def counted(*args, _name=name, _real=getattr(module, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "missing" / "a.csv" if where == "missing-directory" \
        else "" if where == "empty" else tmp_path / "a.csv"
    if where == "directory":
        out.mkdir()
    extra = ["--checkpoint", str(tmp_path / "map.ckpt")] \
        if command[0] == "sweep" else []
    assert parse_and_dispatch(command + extra + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert re.fullmatch(rf"error: \[Errno \d+\] [^:]+: {re.escape(repr(str(out)))}\n",
                        captured.err)
    if where == "unwritable":
        assert captured.err.startswith("error: [Errno 13] Permission denied")
    assert calls == []
    assert [p.name for p in tmp_path.rglob("*")] == \
        (["a.csv"] if where == "directory" else [])


@pytest.mark.parametrize("command", [
    ["evolve", "--n-sat", "2", "--periods", "4"],
    ["qfi", "--n-sat", "2", "--periods-list", "1,2"]],
    ids=lambda argv: argv[0])
def test_broken_stdout_pipe_exits_0(monkeypatch, capsys, command):
    # in process: the first write to stdout fails as on a closed pipe, and
    # the command ends with exit 0 and nothing on stderr
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    stdout = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert parse_and_dispatch(command + ["--spin", "1/2", "--lambda", "pi",
                                         "--g", "pi/2"]) == 0
    assert stdout.getvalue() == ""
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    ["evolve", "--n-sat", "2", "--periods", "2000"],
    ["qfi", "--n-sat", "2",
     "--periods-list", ",".join(str(n) for n in range(1, 2001))]],
    ids=lambda argv: argv[0])
def test_closed_stdout_ends_quietly(command):
    # the reader closes the pipe after the header while more rows than a
    # pipe buffer holds are still to come: the command stops writing, exits
    # 0 and prints nothing on stderr
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spindtc.cli", *command, "--spin", "1/2",
         "--lambda", "pi", "--g", "pi/2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert header.decode().rstrip("\n") == (
        cli.TRAJECTORY_HEADER if command[0] == "evolve" else cli.QFI_HEADER)
