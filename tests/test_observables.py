import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.spin_algebra import coherent_axis_state, spin_matrices
from spindtc.hilbert import (SystemShape, CollectiveShape, PureState, fidelity,
                             product_state, x_polarized_state)
from spindtc.floquet import DriveParams, precompute, evolve
from spindtc.observables import (TrajectoryRecord, magnetization,
                                 period_observables, record, make_recorder)
from spindtc.analytic_states import MilestoneSpec, milestone_state


def test_x_polarized_magnetizations():
    sh = SystemShape(4, 5)
    st = x_polarized_state(sh)
    assert magnetization(st, "satellites", "x") == pytest.approx(0.5, abs=1e-12)
    assert magnetization(st, "central", "x") == pytest.approx(2.5, abs=1e-12)
    assert magnetization(st, "satellites", "z") == pytest.approx(0.0, abs=1e-12)


def test_z_product_magnetizations():
    sh = SystemShape(3, 2)
    st = product_state(sh, [coherent_axis_state(1, "z", "+")] * 3,
                       coherent_axis_state(2, "z", "+"))
    assert magnetization(st, "satellites", "x") == pytest.approx(0.0, abs=1e-12)
    assert magnetization(st, "satellites", "z") == pytest.approx(0.5, abs=1e-12)
    assert magnetization(st, "central", "z") == pytest.approx(1.0, abs=1e-12)


def test_bad_arguments():
    st = x_polarized_state(SystemShape(2, 1))
    with pytest.raises(ShapeError):
        magnetization(st, "everything", "x")
    with pytest.raises(ShapeError):
        magnetization(st, "satellites", "w")
    with pytest.raises(ShapeError):
        magnetization(st, "central", "w")


def test_super_cat_magnetization_vanishes():
    sh = SystemShape(9, 5)
    st = milestone_state(sh, MilestoneSpec("odd_half", 3))
    assert magnetization(st, "satellites", "x") == pytest.approx(0.0, abs=1e-10)
    assert magnetization(st, "central", "x") == pytest.approx(0.0, abs=1e-10)


def test_magnetization_matches_dense_operator_oracle():
    rng = np.random.default_rng(3)
    for n_sat, two_s in ((2, 1), (3, 2), (2, 3)):
        sh = SystemShape(n_sat, two_s)
        v = rng.normal(size=sh.dim) + 1j * rng.normal(size=sh.dim)
        v /= np.linalg.norm(v)
        st = PureState(sh, v)
        sat = spin_matrices(1)
        cen = spin_matrices(two_s)
        for axis in ("x", "y", "z"):
            sat_op = {"x": sat.sx, "y": sat.sy, "z": sat.sz}[axis]
            cen_op = {"x": cen.sx, "y": cen.sy, "z": cen.sz}[axis]
            total = np.zeros((sh.dim, sh.dim), dtype=complex)
            for i in range(n_sat):
                left = np.eye(1 << (n_sat - 1 - i))
                right = np.eye((1 << i) * sh.central_dim)
                total += np.kron(left, np.kron(sat_op, right))
            want_sat = np.vdot(v, total @ v).real / n_sat
            want_cen = np.vdot(v, np.kron(np.eye(1 << n_sat), cen_op) @ v).real
            assert magnetization(st, "satellites", axis) == pytest.approx(want_sat, abs=1e-11)
            assert magnetization(st, "central", axis) == pytest.approx(want_cen, abs=1e-11)


def test_record_initial_state():
    sh = SystemShape(3, 5)
    st = x_polarized_state(sh)
    r = record(st, 0, st)
    assert r.n == 0
    assert r.m_sat_x == pytest.approx(0.5, abs=1e-12)
    assert r.m_c_x == pytest.approx(2.5, abs=1e-12)
    assert r.entropy == pytest.approx(0.0, abs=1e-12)
    assert r.fidelity_initial == pytest.approx(1.0, abs=1e-12)


def test_record_ghz_entropy():
    sh = SystemShape(9, 5)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, DriveParams.symmetric(np.pi, np.pi / 2)),
                  6, make_recorder(st.copy()))
    assert traj[5].entropy == pytest.approx(np.log(2), abs=1e-9)


def test_record_bounds_along_trajectory():
    sh = SystemShape(4, 3)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, DriveParams.symmetric(1.9, 0.7)),
                  40, make_recorder(st.copy()))
    for r in traj:
        assert abs(r.m_sat_x) <= 0.5 + 1e-10
        assert abs(r.m_c_x) <= 1.5 + 1e-10
        assert -1e-12 <= r.entropy
        assert 0.0 <= r.fidelity_initial <= 1.0 + 1e-10


@pytest.mark.parametrize("shape", [SystemShape(3, 2), CollectiveShape(8, 4)])
def test_stack_rows_match_single_states(shape):
    # three drive points evolved as one stack: every row's observables and
    # norm equal, bitwise, those of the same state evolved alone
    points = [(1.3, 0.7), (np.pi, np.pi / 2), (2 * np.pi, 3.0)]
    x = x_polarized_state(shape)
    stack = PureState(shape, np.tile(x.amplitudes, (len(points), 1)))
    evolve(stack, precompute(shape, [DriveParams.symmetric(*p) for p in points]), 7)
    rows = [period_observables(stack, axis) for axis in "xyz"]
    for b, p in enumerate(points):
        st = x.copy()
        evolve(st, precompute(shape, DriveParams.symmetric(*p)), 7)
        np.testing.assert_array_equal(stack.amplitudes[b], st.amplitudes)
        for axis, row in zip("xyz", rows):
            assert [float(v[b]) for v in row] == \
                [float(v) for v in period_observables(st, axis)]
        assert stack.norm()[b] == st.norm()
    with pytest.raises(ShapeError):
        fidelity(stack, stack)


def _per_period_records(shape, params, periods):
    # the states of one evolve call, each period recorded on its own from
    # the single state alone
    st = x_polarized_state(shape)
    ref = st.copy()
    states = evolve(st, precompute(shape, params), periods,
                    lambda block, first: list(block.amplitudes))
    out = []
    for n, amps in enumerate(states, start=1):
        single = PureState(shape, amps)
        m_sat, m_c, entropy = period_observables(single)
        out.append(TrajectoryRecord(n, float(m_sat), float(m_c), float(entropy),
                                    fidelity(single, ref)))
    return out


@pytest.mark.parametrize("shape,periods", [(CollectiveShape(8, 4), 5000),
                                           (SystemShape(10, 4), 30)])
def test_block_records_match_stepped_periods(shape, periods):
    # (8, 2) spans many recording blocks; the 2^10 x 5 state is over the
    # block budget, so its blocks hold one period each
    params = DriveParams.symmetric(1.3, 0.7)
    st = x_polarized_state(shape)
    got = evolve(st, precompute(shape, params), periods, make_recorder(st.copy()))
    assert got == _per_period_records(shape, params, periods)


def test_one_period_calls_match_one_call():
    # each evolve call enters and leaves the x basis once, so 5000 calls of
    # one period round differently from one call of 5000, within the
    # engine cross-check tolerance
    shape, periods = CollectiveShape(8, 4), 5000
    params = DriveParams.symmetric(1.3, 0.7)
    tables = precompute(shape, params)
    whole = x_polarized_state(shape)
    got = evolve(whole, tables, periods, make_recorder(whole.copy()))
    st = x_polarized_state(shape)
    for n in range(1, periods + 1):
        evolve(st, tables, 1)
        m_sat, m_c, entropy = period_observables(st)
        want = (m_sat, m_c, entropy, fidelity(st, x_polarized_state(shape)))
        rec = got[n - 1]
        assert rec.n == n
        assert np.max(np.abs(np.subtract(
            (rec.m_sat_x, rec.m_c_x, rec.entropy, rec.fidelity_initial),
            want))) < 1e-10
    assert np.max(np.abs(st.amplitudes - whole.amplitudes)) < 1e-10
