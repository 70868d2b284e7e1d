import os
import re

import numpy as np
import pytest

from spindtc.cli import (parse_angle, parse_spin, parse_int_list, read_config,
                         build_parser, parse_and_dispatch)
from spindtc.errors import SpinDtcError
from spindtc.floquet import DriveParams
from spindtc.hilbert import CollectiveShape
from spindtc.metrology import qfi_matrix, sensing_gain


def test_parse_angle_forms():
    assert parse_angle("1.5") == pytest.approx(1.5)
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("2pi") == pytest.approx(2 * np.pi)
    assert parse_angle("0.5pi") == pytest.approx(np.pi / 2)
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("3pi/2") == pytest.approx(3 * np.pi / 2)
    assert parse_angle("-pi") == pytest.approx(-np.pi)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("two pies")


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


def test_evolve_zero_periods(tmp_path):
    out = tmp_path / "empty.csv"
    code = parse_and_dispatch(["evolve", "--n-sat", "2", "--spin", "1/2",
                               "--lambda", "1", "--g", "1",
                               "--periods", "0", "--output", str(out)])
    assert code == 0
    assert out.read_text() == "n,m_sat_x,m_c_x,entropy,fidelity\n"


def test_classify_special(capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "8", "--spin", "2",
                               "--regime", "special"])
    assert code == 0
    assert "predicted 4, measured 4" in capsys.readouterr().out


def test_classify_lambda_2pi(capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "9", "--spin", "5/2",
                               "--regime", "lambda2pi", "--periods", "12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eternal DTC" in out
    assert "measured satellites period doubling, central period doubling" in out


def test_classify_not_tabulated(capsys):
    code = parse_and_dispatch(["classify", "--n-sat", "9", "--spin", "2",
                               "--regime", "regular1"])
    assert code == 2


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


def test_sweep_missing_output():
    assert parse_and_dispatch(["sweep", "--n-sat", "3", "--spin", "1/2"]) == 2


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
    # 0 included; every row bitwise as from its own qfi_matrix call
    out = tmp_path / "qfi.csv"
    assert parse_and_dispatch(["qfi", "--n-sat", "6", "--spin", "2",
                               "--lambda", "1.3", "--g", "0.7",
                               "--periods-list", "40,8,0,8,24,3",
                               "--sizes", "3,5", "--output", str(out)]) == 0
    params = DriveParams.symmetric(1.3, 0.7)
    want = []
    for n_sat, n in [(6, 40), (6, 8), (6, 0), (6, 8), (6, 24), (6, 3),
                     (3, 48), (5, 48)]:
        q = qfi_matrix(CollectiveShape(n_sat, 4), params, n)
        try:
            gain = sensing_gain(q)
        except SpinDtcError:
            gain = float("nan")
        want.append(f"{n_sat},4,{n},{q.f_ll:.17g},{q.f_gg:.17g},"
                    f"{q.f_lg:.17g},{q.g_scalar:.17g},{gain:.17g}")
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
