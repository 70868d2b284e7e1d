"""Acceptance gate: twelve end-to-end criteria, one test (one pass/fail
line under pytest -v) per criterion. Tolerances are stated inline; no
criterion is weakened to force a pass."""

import time

import numpy as np
import pytest

from spindtc.hilbert import (SystemShape, PureState, product_state,
                             x_polarized_state, fidelity)
from spindtc.spin_algebra import coherent_axis_state
from spindtc.floquet import (DriveParams, precompute, evolve, oracle_evolve,
                             two_period_residual_phases)
from spindtc.observables import trajectory_records
from spindtc.diagnostics import (detect_period, predict_dtc_class,
                                 fit_cosine_amplitude, classify_subsystem)
from spindtc.analytic_states import MilestoneSpec, milestone_state
from spindtc.metrology import qfi_matrix, sensing_gain, fit_power_law
from spindtc.sweep import GridSpec, run_grid
from spindtc.errors import DegenerateInformationError

from qfi_reference import exact_qfi

SPECIAL = DriveParams.symmetric(np.pi, np.pi / 2)


def _trajectory(n_sat, two_s, lam, g, periods):
    sh = SystemShape(n_sat, two_s)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, DriveParams.symmetric(lam, g)),
                  periods, trajectory_records)
    return sh, st, traj


def test_criterion_01_eternal_period2_dtc():
    t0 = time.monotonic()
    _, _, traj = _trajectory(9, 5, 2 * np.pi, 3.0, 200)
    for r in traj:
        if r.n % 2 == 0:
            assert abs(r.fidelity_initial - 1.0) < 1e-10
            assert abs(r.m_sat_x - 0.5) < 1e-10
            assert abs(r.m_c_x - 2.5) < 1e-10
            assert r.entropy < 1e-10
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_lambda_2pi_taxonomy():
    g = 3.0
    for n_sat, two_s in ((8, 4), (8, 5), (9, 4), (9, 5)):
        sh, _, traj = _trajectory(n_sat, two_s, 2 * np.pi, g, 100)
        pred = predict_dtc_class(n_sat, two_s, "lambda_2pi")
        m_sat = [0.5] + [r.m_sat_x for r in traj]
        m_c = [sh.s] + [r.m_c_x for r in traj]
        assert classify_subsystem(m_sat, g, 0.5) == pred.satellite_behavior
        assert classify_subsystem(m_c, g, sh.s) == pred.central_behavior
        for series, maximum, behavior in ((m_sat, 0.5, pred.satellite_behavior),
                                          (m_c, sh.s, pred.central_behavior)):
            if behavior == "sinusoidal":
                amp, resid = fit_cosine_amplitude(series[::2], g)
                assert abs(amp - maximum) < 1e-8
                assert resid < 1e-8


def test_criterion_03_special_ho_periods():
    for n_sat, two_s, period in ((8, 4, 4), (8, 5, 12), (9, 4, 12), (9, 5, 24)):
        _, _, traj = _trajectory(n_sat, two_s, np.pi, np.pi / 2, period + 4)
        report = detect_period(traj)
        assert report.detected_period == period
        assert report.revival_fidelity > 1 - 1e-8
        for r in traj:
            if r.n < period:
                assert r.fidelity_initial < 0.99


def test_criterion_04_milestone_states():
    sh = SystemShape(9, 5)
    st = x_polarized_state(sh)
    tables = precompute(sh, SPECIAL)
    ghz = milestone_state(sh, MilestoneSpec("odd_half", 6))
    double_ghz = milestone_state(sh, MilestoneSpec("odd_half", 4))
    minus_x = product_state(sh, [coherent_axis_state(1, "x", "-")] * 9,
                            coherent_axis_state(5, "x", "-"))
    traj = evolve(st.copy(), tables, 24, trajectory_records)
    by_n = {r.n: r for r in traj}
    for n in (4, 8, 12, 16, 20, 24):
        assert by_n[n].entropy < 1e-8

    probe = st.copy()
    evolve(probe, tables, 4)
    assert fidelity(probe, double_ghz) >= 1 - 1e-8
    evolve(probe, tables, 2)
    assert fidelity(probe, ghz) >= 1 - 1e-8
    evolve(probe, tables, 6)
    assert fidelity(probe, minus_x) >= 1 - 1e-8


def test_criterion_05_no_polarity_reversal():
    _, _, traj = _trajectory(8, 4, np.pi, np.pi / 2, 200)
    assert min(r.m_sat_x for r in traj) >= -1e-9
    for r in traj:
        if r.n % 4 == 0:
            assert abs(r.m_sat_x - 0.5) < 1e-8


def test_criterion_06_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    points = [(rng.uniform(0, 4 * np.pi), rng.uniform(0, 2 * np.pi))
              for _ in range(20)]
    for n_sat, two_s in ((2, 1), (3, 2), (4, 3)):
        sh = SystemShape(n_sat, two_s)
        for lam, g in points:
            params = DriveParams.symmetric(lam, g)
            fast = x_polarized_state(sh)
            evolve(fast, precompute(sh, params), 50)
            dense = oracle_evolve(sh, params, x_polarized_state(sh), 50)
            assert np.max(np.abs(fast.amplitudes - dense.amplitudes)) < 1e-9
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_two_period_closed_form():
    rng = np.random.default_rng(11)
    for n_sat, two_s in ((3, 1), (3, 2), (4, 1), (4, 2)):
        sh = SystemShape(n_sat, two_s)
        params = DriveParams(lam=2 * np.pi, g_s=1.21, g_c=0.67)
        tables = precompute(sh, params)
        residual = two_period_residual_phases(sh, params)
        for _ in range(100):
            v = rng.normal(size=sh.dim) + 1j * rng.normal(size=sh.dim)
            v /= np.linalg.norm(v)
            st = PureState(sh, v.copy())
            evolve(st, tables, 2)
            overlap = np.vdot(residual * v, st.amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-10


def test_criterion_08_qfi_time_scaling():
    sh = SystemShape(5, 1)
    pts = []
    for n in range(8, 97, 8):
        pts.append((n, sensing_gain(qfi_matrix(sh, SPECIAL, n))))
    slope, _ = fit_power_law(pts)
    assert abs(slope - 2.0) <= 0.1


def test_criterion_09_qfi_size_scaling():
    # every Fisher element at n = 48 matches the exact tangent-propagation
    # reference to 1e-3 of the matrix scale max(|f_ll|, |f_gg|)
    def checked(n_sat, two_s):
        q = qfi_matrix(SystemShape(n_sat, two_s), SPECIAL, 48)
        ref = exact_qfi(n_sat, two_s, np.pi, np.pi / 2, 48)
        for got, want in ((q.f_ll, ref.f_ll), (q.f_gg, ref.f_gg),
                          (q.f_lg, ref.f_lg)):
            assert abs(got - want) <= 1e-3 * ref.scale, (n_sat, two_s)
        return q, ref

    # s = 2 branch over N_sat = 2..8: the fitted size exponent equals the
    # exact one (1.301) and beats the standard-quantum-limit exponent 1
    pts, ref_pts = [], []
    for n_sat in range(2, 9):
        q, ref = checked(n_sat, 4)
        pts.append((n_sat, sensing_gain(q)))
        ref_pts.append((n_sat, ref.gain))
    beta_int, _ = fit_power_law(pts)
    beta_ref, _ = fit_power_law(ref_pts)
    assert abs(beta_int - beta_ref) <= 0.01
    assert beta_int > 1.0

    # s = 1/2 branch over N_sat in {2,3,5,6,7}: at n = 48 the N_sat = 3
    # system (period-24 revival) has refocused to exactly zero g-sensitivity,
    # so its Fisher matrix is singular and no size exponent exists over these
    # sizes; it must be reported singular, not fitted
    for n_sat in (2, 3, 5, 6, 7):
        q, ref = checked(n_sat, 1)
        if n_sat == 3:
            assert abs(ref.f_gg) <= 1e-12 * ref.scale
            with pytest.raises(DegenerateInformationError):
                sensing_gain(q)
        else:
            assert sensing_gain(q) > 0.0


def test_criterion_10_regular_ho_periods():
    periods = {}
    for lam, g in ((np.pi, np.pi / 4), (np.pi / 2, np.pi / 2)):
        _, _, traj = _trajectory(8, 8, lam, g, 30)
        periods[(lam, g)] = detect_period(traj).detected_period
    assert set(periods.values()) == {12, 24}
    pred1 = predict_dtc_class(8, 8, "regular_class_1").period
    pred2 = predict_dtc_class(8, 8, "regular_class_2").period
    assert {pred1, pred2} == {12, 24}
    print(f"point-to-class mapping (reported, not asserted): {periods}")


def test_criterion_11_phase_map_sanity():
    t0 = time.monotonic()
    spec = GridSpec((0.0, 4 * np.pi, 65), (0.0, 2 * np.pi, 33),
                    SystemShape(8, 4), 200, 2)
    records = run_grid(spec)
    assert time.monotonic() - t0 < 600.0
    entropy = np.array([r.avg_entropy for r in records]).reshape(65, 33)
    assert np.all(entropy[32, :] < 1e-8)          # lambda = 2pi column
    for i, j in ((16, 8), (48, 8), (16, 24), (48, 24)):
        centre = entropy[i, j]
        neighbours = [entropy[i + di, j + dj]
                      for di in (-1, 0, 1) for dj in (-1, 0, 1)
                      if (di, dj) != (0, 0)]
        assert centre < min(neighbours)


def test_criterion_12_determinism():
    spec = GridSpec((0.0, 2 * np.pi, 3), (0.2, np.pi, 3),
                    SystemShape(3, 1), 16, 2)
    r1 = run_grid(spec, workers=1)
    r2 = run_grid(spec, workers=2)
    r8 = run_grid(spec, workers=8)
    assert r1 == r2 == r8
    import os
    import tempfile
    from spindtc.hilbert import CollectiveShape
    from spindtc.sweep import (CHECKPOINT_MAGIC, compute_point,
                               _write_checkpoint_record)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "resume.bin")
        lams, gs = spec.axis("lambda"), spec.axis("g")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            for index in range(5):
                i, j = divmod(index, 3)
                rec = compute_point(CollectiveShape(3, 1), float(lams[i]),
                                    float(gs[j]), 16, 2)
                _write_checkpoint_record(fh, index, rec)
        resumed = run_grid(spec, workers=1, checkpoint_path=path)
    assert resumed == r1
