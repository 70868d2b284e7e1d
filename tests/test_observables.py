import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.spin_algebra import coherent_axis_state, spin_matrices
from spindtc.hilbert import (SystemShape, CollectiveShape, PureState, fidelity,
                             product_state, x_polarized_state,
                             reduced_central_density, von_neumann_entropy)
from spindtc.floquet import DriveParams, precompute, evolve, from_x_basis
from spindtc.observables import (magnetization,
                                 period_observables, trajectory_records)
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
    # the identity drive: the one recorded period is the x-polarized start
    sh = SystemShape(3, 5)
    st = x_polarized_state(sh)
    [r] = evolve(st, precompute(sh, DriveParams(0.0, 0.0, 0.0)), 1,
                 trajectory_records)
    assert r.n == 1
    assert r.m_sat_x == pytest.approx(0.5, abs=1e-12)
    assert r.m_c_x == pytest.approx(2.5, abs=1e-12)
    assert r.entropy == pytest.approx(0.0, abs=1e-12)
    assert r.fidelity_initial == pytest.approx(1.0, abs=1e-12)


def test_record_ghz_entropy():
    sh = SystemShape(9, 5)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, DriveParams.symmetric(np.pi, np.pi / 2)),
                  6, trajectory_records)
    assert traj[5].entropy == pytest.approx(np.log(2), abs=1e-9)


def test_record_bounds_along_trajectory():
    sh = SystemShape(4, 3)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, DriveParams.symmetric(1.9, 0.7)),
                  40, trajectory_records)
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

    def observables(st):
        return [magnetization(st, target, axis) for axis in "xyz"
                for target in ("satellites", "central")] + \
            [von_neumann_entropy(reduced_central_density(st))]

    rows = observables(stack)
    for b, p in enumerate(points):
        st = x.copy()
        evolve(st, precompute(shape, DriveParams.symmetric(*p)), 7)
        np.testing.assert_array_equal(stack.amplitudes[b], st.amplitudes)
        assert [float(v[b]) for v in rows] == [float(v) for v in observables(st)]
        assert stack.norm()[b] == st.norm()
    with pytest.raises(ShapeError):
        fidelity(stack, stack)


def _per_period_records(shape, params, periods):
    # the x-basis states of one evolve call, each period recorded on its own
    # as a block of one
    st = x_polarized_state(shape)
    states = evolve(st, precompute(shape, params), periods,
                    lambda block, first: list(block.amplitudes))
    return [trajectory_records(PureState(shape, amps[None]), n)[0]
            for n, amps in enumerate(states, start=1)]


@pytest.mark.parametrize("shape,periods", [(CollectiveShape(8, 4), 5000),
                                           (SystemShape(10, 4), 30)])
def test_block_records_match_stepped_periods(shape, periods):
    # (8, 2) spans many recording blocks; the 2^10 x 5 state is over the
    # block budget, so its blocks hold one period each
    params = DriveParams.symmetric(1.3, 0.7)
    st = x_polarized_state(shape)
    got = evolve(st, precompute(shape, params), periods, trajectory_records)
    assert got == _per_period_records(shape, params, periods)


def test_one_period_calls_match_one_call():
    # each evolve call enters and leaves the x basis once, so 5000 calls of
    # one period round differently from one call of 5000, within the
    # engine cross-check tolerance
    shape, periods = CollectiveShape(8, 4), 5000
    params = DriveParams.symmetric(1.3, 0.7)
    tables = precompute(shape, params)
    whole = x_polarized_state(shape)
    got = evolve(whole, tables, periods, trajectory_records)
    st = x_polarized_state(shape)
    for n in range(1, periods + 1):
        evolve(st, tables, 1)
        want = _z_basis_observables(st)
        rec = got[n - 1]
        assert rec.n == n
        assert np.max(np.abs(np.subtract(
            (rec.m_sat_x, rec.m_c_x, rec.entropy, rec.fidelity_initial),
            want))) < 1e-10
    assert np.max(np.abs(st.amplitudes - whole.amplitudes)) < 1e-10


def _z_basis_observables(st):
    """(satellite <S^x>, central <S^x>, entropy, fidelity to the x-polarized
    start) of a z-basis state, through the public functions."""
    return (magnetization(st, "satellites"), magnetization(st, "central"),
            von_neumann_entropy(reduced_central_density(st)),
            fidelity(st, x_polarized_state(st.shape)))


def _dense_x_magnetizations(shape, z):
    """(satellite, central) <S^x> of a z-basis state from spin matrices
    applied in the z basis, independent of the population sums."""
    d = shape.central_dim
    mat = z.reshape(-1, d)
    central = np.vdot(mat, mat @ spin_matrices(shape.two_s).sx.T).real
    if isinstance(shape, CollectiveShape):
        return np.vdot(mat, spin_matrices(shape.n_sat).sx @ mat).real / shape.n_sat, central
    # satellite qubit k is bit k of the satellite index
    sx = spin_matrices(1).sx
    views = [z.reshape(-1, 2, (1 << k) * d) for k in range(shape.n_sat)]
    sat = sum(np.vdot(v, np.einsum("ab,ibj->iaj", sx, v)).real for v in views)
    return sat / shape.n_sat, central


def _check_columns(shape, x_amps, columns):
    # the columns read from one x-basis state equal the z-basis observables
    # of the same state, to 1e-12
    st = PureState(shape, from_x_basis(x_amps.reshape(-1, shape.central_dim),
                                       shape).reshape(-1))
    want = _z_basis_observables(st)[:len(columns)]
    assert np.max(np.abs(np.subtract(columns, want))) <= 1e-12
    assert np.max(np.abs(np.subtract(columns[:2],
                                     _dense_x_magnetizations(shape, st.amplitudes)))) <= 1e-12


@pytest.mark.parametrize("shape", [CollectiveShape(8, 4), SystemShape(6, 3)])
def test_recorded_columns_match_z_basis_observables(shape):
    # trajectory_records reads the x-basis states evolve hands it: each of
    # its columns equals magnetization, von_neumann_entropy and fidelity on
    # the matching z-basis state
    st = x_polarized_state(shape)
    got = evolve(st, precompute(shape, DriveParams.symmetric(1.3, 0.7)), 40,
                 lambda states, first: list(zip(states.amplitudes,
                                                trajectory_records(states, first))))
    for amps, rec in got:
        _check_columns(shape, amps, (rec.m_sat_x, rec.m_c_x, rec.entropy,
                                     rec.fidelity_initial))


def test_recorded_stack_columns_match_z_basis_observables():
    # the phase map's columns, read from an x-basis stack at (9, 5/2), match
    # the z-basis observables of every row
    shape = CollectiveShape(9, 5)
    points = [(np.pi, np.pi / 2), (2 * np.pi, 3.0), (1.3, 0.7)]
    tables = precompute(shape, [DriveParams.symmetric(*p) for p in points])
    stack = PureState(shape, np.tile(x_polarized_state(shape).amplitudes,
                                     (len(points), 1)))
    got = evolve(stack, tables, 30,
                 lambda states, first: list(zip(states.amplitudes,
                                                zip(*period_observables(states)))))
    for amps, columns in got:
        for row, values in zip(amps, zip(*columns)):
            _check_columns(shape, row, values)
