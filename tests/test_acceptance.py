"""Acceptance gate: twelve end-to-end criteria, one test (one pass/fail
line under pytest -v) per criterion. Tolerances are stated inline; no
criterion is weakened to force a pass."""

import time

import numpy as np

from spindtc.hilbert import CollectiveShape, x_polarized_state
from spindtc.spin_algebra import coherent_axis_state
from spindtc.floquet import precompute, evolve
from spindtc.observables import trajectory_columns
from spindtc.diagnostics import (first_revival, lambda_2pi_taxonomy,
                                 tabulated_period, fit_cosine_amplitude,
                                 classify_subsystem)
from spindtc.analytic_states import milestone_state
from spindtc.metrology import qfi_scan
from spindtc.sweep import GridSpec, run_grid

from qfi_reference import exact_qfi
from qubit_reference import (SystemShape, product_state, x_polarized, spread,
                             drive, entropy, oracle_evolve,
                             two_period_residual_phases)

SPECIAL = (np.pi, np.pi / 2)     # (lambda, g)


def _trajectory(n_sat, two_s, lam, g, periods):
    sh = CollectiveShape(n_sat, two_s)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, lam, g, g),
                  periods, trajectory_columns)
    return sh, st, traj


def test_criterion_01_eternal_period2_dtc():
    t0 = time.monotonic()
    _, _, traj = _trajectory(9, 5, 2 * np.pi, 3.0, 200)
    # the even periods n = 2, 4, ..., 200, at index n - 1
    m_sat, m_c, entropy, fid = (c[1::2] for c in traj)
    assert len(fid) == 100
    assert (abs(fid - 1.0) < 1e-10).all()
    assert (abs(m_sat - 0.5) < 1e-10).all()
    assert (abs(m_c - 2.5) < 1e-10).all()
    assert (entropy < 1e-10).all()
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_lambda_2pi_taxonomy():
    g = 3.0
    for n_sat, two_s in ((8, 4), (8, 5), (9, 4), (9, 5)):
        sh, _, traj = _trajectory(n_sat, two_s, 2 * np.pi, g, 100)
        sat, cen, _ = lambda_2pi_taxonomy(sh)
        m_sat = [0.5, *traj[0]]
        m_c = [sh.s, *traj[1]]
        assert classify_subsystem(m_sat, g, 0.5) == sat
        assert classify_subsystem(m_c, g, sh.s) == cen
        for series, maximum, behavior in ((m_sat, 0.5, sat),
                                          (m_c, sh.s, cen)):
            if behavior == "sinusoidal":
                amp, resid = fit_cosine_amplitude(series[::2], g)
                assert abs(amp - maximum) < 1e-8
                assert resid < 1e-8


def test_criterion_03_special_ho_periods():
    for n_sat, two_s, period in ((8, 4, 4), (8, 5, 12), (9, 4, 12), (9, 5, 24)):
        _, _, traj = _trajectory(n_sat, two_s, np.pi, np.pi / 2, period + 4)
        # the first period whose fidelity to the start is above 1 - 1e-8
        revived = np.flatnonzero(traj[3] > 1 - 1e-8)
        assert revived.size and revived[0] + 1 == period
        assert traj[3][period - 1] > 1 - 1e-8
        # periods 1..period - 1
        assert (traj[3][:period - 1] < 0.99).all()


def test_criterion_04_milestone_states():
    # on the 2^n reference drive, against the collective milestones spread
    # over the 2^n basis
    full, sh = SystemShape(9, 5), CollectiveShape(9, 5)
    states = drive(full, (np.pi, np.pi / 2, np.pi / 2), x_polarized(full), 24)
    for n in (4, 8, 12, 16, 20, 24):
        assert entropy(full, states[n - 1]) < 1e-8

    def reached(n, target):
        return abs(np.vdot(target, states[n - 1])) ** 2 >= 1 - 1e-8

    ghz = milestone_state(sh, 6)
    double_ghz = milestone_state(sh, 4)
    assert reached(4, spread(full, double_ghz))
    assert reached(6, spread(full, ghz))
    assert reached(12, product_state([coherent_axis_state(1, "x", "-")] * 9,
                                     coherent_axis_state(5, "x", "-")))


def test_criterion_05_no_polarity_reversal():
    _, _, traj = _trajectory(8, 4, np.pi, np.pi / 2, 200)
    m_sat = traj[0]
    assert min(m_sat) >= -1e-9
    # periods n = 4, 8, ..., 200, at index n - 1
    assert len(m_sat[3::4]) == 50
    assert (abs(m_sat[3::4] - 0.5) < 1e-8).all()


def test_criterion_06_oracle_equivalence():
    # the collective engine, spread over the 2^n basis, against the dense
    # oracle
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    points = [(rng.uniform(0, 4 * np.pi), rng.uniform(0, 2 * np.pi))
              for _ in range(20)]
    for n_sat, two_s in ((2, 1), (3, 2), (4, 3)):
        full, sh = SystemShape(n_sat, two_s), CollectiveShape(n_sat, two_s)
        for lam, g in points:
            fast = x_polarized_state(sh)
            evolve(fast, precompute(sh, lam, g, g), 50)
            dense = oracle_evolve(full, (lam, g, g), x_polarized(full), 50)
            assert np.max(np.abs(spread(full, fast) - dense)) < 1e-9
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_two_period_closed_form():
    # random states of the collective layout, driven two periods, against
    # the 2^n closed form on their spread
    rng = np.random.default_rng(11)
    for n_sat, two_s in ((3, 1), (3, 2), (4, 1), (4, 2)):
        full, sh = SystemShape(n_sat, two_s), CollectiveShape(n_sat, two_s)
        angles = (2 * np.pi, 1.21, 0.67)
        tables = precompute(sh, *angles)
        residual = two_period_residual_phases(full, angles)
        for _ in range(100):
            v = rng.normal(size=sh.dims) + 1j * rng.normal(size=sh.dims)
            v /= np.linalg.norm(v)
            st = v.copy()
            evolve(st, tables, 2)
            overlap = np.vdot(residual * spread(full, v), spread(full, st))
            assert abs(abs(overlap) - 1.0) < 1e-10


def test_criterion_08_qfi_time_scaling():
    counts = list(range(8, 97, 8))
    (row,) = qfi_scan([(CollectiveShape(5, 1), counts)], *SPECIAL)
    slope = np.polyfit(np.log(counts), np.log([q.gain for q in row]), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_criterion_09_qfi_size_scaling():
    # every Fisher element at n = 48 matches the exact tangent-propagation
    # reference to 1e-3 of the matrix scale max(|f_ll|, |f_gg|)
    def checked(n_sat, two_s):
        q = qfi_scan([(CollectiveShape(n_sat, two_s), [48])], *SPECIAL)[0][0]
        ref = exact_qfi(n_sat, two_s, np.pi, np.pi / 2, 48)
        for got, want in ((q.f_ll, ref.f_ll), (q.f_gg, ref.f_gg),
                          (q.f_lg, ref.f_lg)):
            assert abs(got - want) <= 1e-3 * ref.scale, (n_sat, two_s)
        return q, ref

    # s = 2 branch over N_sat = 2..8: the fitted size exponent equals the
    # exact one (1.301) and beats the standard-quantum-limit exponent 1
    sizes, gains, ref_gains = range(2, 9), [], []
    for n_sat in sizes:
        q, ref = checked(n_sat, 4)
        gains.append(q.gain)
        ref_gains.append(ref.gain)
    beta_int = np.polyfit(np.log(sizes), np.log(gains), 1)[0]
    beta_ref = np.polyfit(np.log(sizes), np.log(ref_gains), 1)[0]
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
            assert np.isnan(q.gain)
        else:
            assert q.gain > 0.0


def test_criterion_10_regular_ho_periods():
    periods = {}
    sh = CollectiveShape(8, 8)
    for lam, g in ((np.pi, np.pi / 4), (np.pi / 2, np.pi / 2)):
        periods[(lam, g)] = first_revival(
            precompute(sh, lam, g, g), 30)
    assert set(periods.values()) == {12, 24}
    pred1 = tabulated_period(sh, "regular1")
    pred2 = tabulated_period(sh, "regular2")
    assert {pred1, pred2} == {12, 24}
    print(f"point-to-class mapping (reported, not asserted): {periods}")


def test_criterion_11_phase_map_sanity():
    t0 = time.monotonic()
    spec = GridSpec((0.0, 4 * np.pi, 65), (0.0, 2 * np.pi, 33),
                    CollectiveShape(8, 4), 200, 2)
    report = []
    table = run_grid(spec, report=report.append)
    assert time.monotonic() - t0 < 600.0
    # the fold's keys: the 17 x 8 cell points with g > 0, and (0, 0) for
    # the g = 0 line
    assert report == ["computed 137 of 2145 points (2008 by symmetry, "
                      "0 resumed)"]
    entropy = table[:, 4].reshape(65, 33)     # avg_entropy
    assert np.all(entropy[32, :] < 1e-8)          # lambda = 2pi column
    for i, j in ((16, 8), (48, 8), (16, 24), (48, 24)):
        centre = entropy[i, j]
        neighbours = [entropy[i + di, j + dj]
                      for di in (-1, 0, 1) for dj in (-1, 0, 1)
                      if (di, dj) != (0, 0)]
        assert centre < min(neighbours)


def test_criterion_12_determinism():
    spec = GridSpec((0.0, 2 * np.pi, 3), (0.2, np.pi, 3),
                    CollectiveShape(3, 1), 16, 2)
    r1 = run_grid(spec).tolist()
    assert run_grid(spec).tolist() == r1 == run_grid(spec).tolist()
    import os
    import tempfile
    from spindtc.sweep import (CHECKPOINT_MAGIC, _pack_records, _SPEC_INDEX,
                               _fingerprint)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "resume.bin")
        lams, gs = spec.lambdas, spec.gs
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(_pack_records([_SPEC_INDEX], [_fingerprint(spec)]))
            for index in range(5):
                i, j = divmod(index, 3)
                lam, g = float(lams[i]), float(gs[j])
                rec = run_grid(GridSpec((lam, lam, 1), (g, g, 1),
                                        CollectiveShape(3, 1), 16, 2))[0]
                fh.write(_pack_records([index], [rec]))
        resumed = run_grid(spec, checkpoint_path=path)
    assert resumed.tolist() == r1
