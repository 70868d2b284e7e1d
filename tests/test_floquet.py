from math import comb

import numpy as np
import pytest

from spindtc.errors import ShapeError, CapacityError
from spindtc.spin_algebra import coherent_axis_state
from spindtc.hilbert import (SystemShape, CollectiveShape, PureState,
                             product_state, x_polarized_state, fidelity)
from spindtc.observables import trajectory_records
from spindtc import floquet
from spindtc.floquet import (DriveParams, precompute, evolve, u_squared_class,
                             two_period_residual_phases, oracle_unitaries,
                             oracle_evolve, reset_op_count, op_count)


def _random_state(sh, rng):
    v = rng.normal(size=sh.dim) + 1j * rng.normal(size=sh.dim)
    return PureState(sh, v / np.linalg.norm(v))


def test_tables_trivial_params():
    sh = SystemShape(3, 2)
    t = precompute(sh, DriveParams(lam=0.0, g_s=1.3, g_c=0.4))
    np.testing.assert_allclose(t.interaction_phases, 1.0, atol=1e-12)
    t = precompute(sh, DriveParams(lam=1.1, g_s=0.0, g_c=0.0))
    np.testing.assert_allclose(t.satellite_kick, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t.central_kick, np.eye(3), atol=1e-12)


def test_tables_unit_modulus():
    sh = SystemShape(4, 3)
    t = precompute(sh, DriveParams(lam=2.2, g_s=0.7, g_c=1.9))
    np.testing.assert_allclose(np.abs(t.interaction_phases), 1.0, atol=1e-12)
    for k in (t.satellite_kick, t.central_kick):
        np.testing.assert_allclose(k.conj().T @ k, np.eye(len(k)), atol=1e-12)


@pytest.mark.parametrize("shape", [SystemShape(3, 2), CollectiveShape(6, 3)])
def test_kick_factors_are_the_kick_in_the_x_basis(shape):
    # K_s X K_c^T in the x basis is the z-basis kick diagonal
    # exp(-i g_s m_sat - i g_c m_c), for one drive point and per row of
    # stacked tables; on the 2^n layout K_s is the closed-form qubit rotation
    rng = np.random.default_rng(5)
    points = [DriveParams(1.1, 0.7, 2.3), DriveParams(0.4, -1.9, 0.3)]
    d = shape.central_dim
    m_sat, m_c = floquet.magnetic_numbers(shape)
    for params in (points[0], points):
        t = precompute(shape, params)
        stacked = isinstance(params, list)
        rows = (len(params),) if stacked else ()
        kick = np.array([np.exp(-1j * (p.g_s * m_sat[:, None] + p.g_c * m_c))
                         for p in (params if stacked else [params])])
        z = rng.normal(size=rows + (shape.dim,)) + 1j * rng.normal(size=rows + (shape.dim,))
        want = z * kick.reshape(rows + (-1,))
        x = floquet.to_x_basis(z.reshape(rows + (-1, d)).copy(), shape)
        if isinstance(shape, CollectiveShape):
            x = t.satellite_kick @ x
        else:
            floquet._rotate_all_satellites(x, shape, t.satellite_kick)
        got = floquet.from_x_basis(x @ t.central_kick, shape).reshape(want.shape)
        np.testing.assert_allclose(got, want, atol=1e-12)
    g = 0.7
    half = precompute(SystemShape(2, 1), DriveParams(0.0, g, g)).satellite_kick
    np.testing.assert_allclose(half, [[np.cos(g / 2), -1j * np.sin(g / 2)],
                                      [-1j * np.sin(g / 2), np.cos(g / 2)]],
                               atol=1e-15)


def test_double_interaction_at_2pi_single_pair():
    # n_sat=1, two_s=1: U_0^2 at lambda=2pi is -identity (pure global phase);
    # with g = 0 two periods are U_0^2
    sh = SystemShape(1, 1)
    t = precompute(sh, DriveParams(lam=2 * np.pi, g_s=0.0, g_c=0.0))
    rng = np.random.default_rng(0)
    st = _random_state(sh, rng)
    ref = st.copy()
    evolve(st, t, 2)
    np.testing.assert_allclose(st.amplitudes, -ref.amplitudes, atol=1e-12)


def test_kick_rotates_x_to_y():
    # with lambda = 0 one period is the kick alone
    sh = SystemShape(1, 1)
    t = precompute(sh, DriveParams(lam=0.0, g_s=np.pi / 2, g_c=np.pi / 2))
    st = x_polarized_state(sh)
    evolve(st, t, 1)
    target = product_state(sh, [coherent_axis_state(1, "y", "+")],
                           coherent_axis_state(1, "y", "+"))
    assert fidelity(st, target) == pytest.approx(1.0, abs=1e-12)


def test_kick_pi_flips_x():
    sh = SystemShape(2, 2)
    t = precompute(sh, DriveParams(lam=0.0, g_s=np.pi, g_c=np.pi))
    st = x_polarized_state(sh)
    evolve(st, t, 1)
    target = product_state(sh, [coherent_axis_state(1, "x", "-")] * 2,
                           coherent_axis_state(2, "x", "-"))
    assert fidelity(st, target) == pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_many_periods():
    sh = SystemShape(5, 3)
    t = precompute(sh, DriveParams(lam=1.37, g_s=0.81, g_c=2.05))
    st = x_polarized_state(sh)
    norms = evolve(st, t, 100, lambda states, first: list(states.norm()))
    assert len(norms) == 100
    assert max(abs(n - 1.0) for n in norms) < 1e-12
    assert abs(st.norm() - 1.0) < 1e-12


def test_shape_mismatch_rejected():
    t = precompute(SystemShape(2, 1), DriveParams(1, 1, 1))
    st = x_polarized_state(SystemShape(3, 1))
    with pytest.raises(ShapeError):
        evolve(st, t, 1)


def test_evolve_zero_periods():
    sh = SystemShape(3, 1)
    st = x_polarized_state(sh)
    ref = st.copy()
    out = evolve(st, precompute(sh, DriveParams(1, 1, 1)), 0)
    assert out == []
    np.testing.assert_allclose(st.amplitudes, ref.amplitudes)
    with pytest.raises(ShapeError):
        evolve(st, precompute(sh, DriveParams(1, 1, 1)), -1)


def test_period_doubling_revival():
    sh = SystemShape(9, 5)
    st = x_polarized_state(sh)
    ref = st.copy()
    t = precompute(sh, DriveParams.symmetric(2 * np.pi, 3.0))
    evolve(st, t, 2)
    assert fidelity(st, ref) == pytest.approx(1.0, abs=1e-10)


def test_even_integer_cosine_magnetization():
    # (8, s=2) at lambda=2pi: residual rotation gives M_sat_x(2nT) = cos(2gn)/2
    from spindtc.observables import magnetization
    sh = SystemShape(8, 4)
    g = 3.0
    st = x_polarized_state(sh)
    t = precompute(sh, DriveParams.symmetric(2 * np.pi, g))
    for n in range(1, 6):
        evolve(st, t, 2)
        got = magnetization(st, "satellites", "x")
        assert got == pytest.approx(0.5 * np.cos(2 * g * n), abs=1e-9)


def test_u_squared_class_table():
    assert u_squared_class(9, 5) == "revival_both"
    assert u_squared_class(9, 4) == "satellite_rotation_only"
    assert u_squared_class(8, 5) == "central_rotation_only"
    assert u_squared_class(8, 4) == "both_rotate"
    with pytest.raises(ShapeError):
        u_squared_class(0, 1)


@pytest.mark.parametrize("n_sat,two_s", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_two_period_closed_form(n_sat, two_s):
    sh = SystemShape(n_sat, two_s)
    params = DriveParams(lam=2 * np.pi, g_s=0.83, g_c=1.91)
    t = precompute(sh, params)
    residual = two_period_residual_phases(sh, params)
    rng = np.random.default_rng(n_sat * 10 + two_s)
    for _ in range(25):
        st = _random_state(sh, rng)
        want = residual * st.amplitudes
        evolve(st, t, 2)
        overlap = np.vdot(want, st.amplitudes)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_oracle_identity_at_zero():
    sh = SystemShape(2, 2)
    u_d, u_0 = oracle_unitaries(sh, DriveParams(0.0, 0.0, 0.0))
    np.testing.assert_allclose(u_d, np.eye(sh.dim), atol=1e-12)
    np.testing.assert_allclose(u_0, np.eye(sh.dim), atol=1e-12)


def test_oracle_unitarity():
    sh = SystemShape(3, 2)
    u_d, u_0 = oracle_unitaries(sh, DriveParams(1.3, 0.7, 2.1))
    for u in (u_d, u_0):
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)


def test_oracle_capacity_limit():
    with pytest.raises(CapacityError):
        oracle_unitaries(SystemShape(12, 2), DriveParams(1, 1, 1))


def test_engine_matches_oracle():
    sh = SystemShape(3, 4)
    params = DriveParams(lam=1.7, g_s=0.9, g_c=2.3)
    st = x_polarized_state(sh)
    want = oracle_evolve(sh, params, st.copy(), 7)
    evolve(st, precompute(sh, params), 7)
    assert np.max(np.abs(st.amplitudes - want.amplitudes)) < 1e-11


def test_op_count_scaling():
    # period cost within a constant of D*(n_sat + two_s + O(1))
    def ops_per_period(n_sat, two_s):
        sh = SystemShape(n_sat, two_s)
        t = precompute(sh, DriveParams(1.0, 1.0, 1.0))
        st = x_polarized_state(sh)
        reset_op_count()
        evolve(st, t, 1)
        return op_count()

    for n_sat, two_s in ((4, 2), (8, 2), (6, 5), (10, 3)):
        sh = SystemShape(n_sat, two_s)
        got = ops_per_period(n_sat, two_s)
        bound = 8 * sh.dim * (n_sat + sh.central_dim + 1)
        assert got <= bound


def _embed(state: PureState, full: SystemShape) -> np.ndarray:
    """Collective amplitudes c[k, l] spread over the 2^n basis as
    c[k, l] / sqrt(C(n, k)) on every bitstring with k down spins."""
    n, d = full.n_sat, full.central_dim
    down = np.array([bin(b).count("1") for b in range(1 << n)])
    norms = np.sqrt([comb(n, k) for k in range(n + 1)])
    c = state.amplitudes.reshape(n + 1, d)
    return (c[down] / norms[down, None]).reshape(-1)


def test_collective_matches_full_engine():
    rng = np.random.default_rng(2025)
    points = [(rng.uniform(0, 4 * np.pi), rng.uniform(0, 2 * np.pi))
              for _ in range(20)]
    for n_sat, two_s in ((2, 1), (3, 2), (4, 3), (8, 4), (9, 5)):
        full, coll = SystemShape(n_sat, two_s), CollectiveShape(n_sat, two_s)
        for lam, g in points:
            params = DriveParams.symmetric(lam, g)
            a, b = x_polarized_state(full), x_polarized_state(coll)
            np.testing.assert_allclose(_embed(b, full), a.amplitudes, atol=1e-14)
            rec_a = evolve(a, precompute(full, params), 50, trajectory_records)
            rec_b = evolve(b, precompute(coll, params), 50, trajectory_records)
            assert np.max(np.abs(_embed(b, full) - a.amplitudes)) < 1e-10
            for ra, rb in zip(rec_a, rec_b):
                assert ra.n == rb.n
                for field in ("m_sat_x", "m_c_x", "entropy", "fidelity_initial"):
                    assert abs(getattr(ra, field) - getattr(rb, field)) < 1e-10


def test_collective_two_period_closed_form():
    sh = CollectiveShape(9, 4)
    params = DriveParams(lam=2 * np.pi, g_s=0.83, g_c=1.91)
    st = x_polarized_state(sh)
    want = two_period_residual_phases(sh, params) * st.amplitudes
    evolve(st, precompute(sh, params), 2)
    assert abs(np.vdot(want, st.amplitudes)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("shape,periods", [(CollectiveShape(8, 4), 1000),
                                           (CollectiveShape(3, 1), 5),
                                           (SystemShape(10, 4), 3)])
def test_recorder_called_once_per_block(shape, periods):
    calls = []

    def stub(states, first):
        calls.append((first, states.amplitudes.shape))
        return [first + k for k in range(len(states.amplitudes))]

    st = x_polarized_state(shape)
    out = evolve(st, precompute(shape, DriveParams.symmetric(1.3, 0.7)),
                 periods, stub)
    block = max(1, floquet._BLOCK_AMPLITUDES // shape.dim)
    assert out == list(range(1, periods + 1))
    assert len(calls) == -(-periods // block)
    assert [first for first, _ in calls] == list(range(1, periods + 1, block))
    for _, dims in calls:
        assert dims[1:] == (shape.dim,)
        assert dims[0] <= block
        assert dims[0] * shape.dim <= floquet._BLOCK_AMPLITUDES or dims[0] == 1


def test_basis_changes_once_per_block(monkeypatch):
    # the drive stays in the x basis and the recorder reads it there: one
    # rotation into it on entry and one out of it on exit, none per block
    calls = {"to": 0, "from": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(floquet, "to_x_basis", counted("to", floquet.to_x_basis))
    monkeypatch.setattr(floquet, "from_x_basis",
                        counted("from", floquet.from_x_basis))
    shape, periods = CollectiveShape(8, 4), 1000
    st = x_polarized_state(shape)
    out = evolve(st, precompute(shape, DriveParams.symmetric(1.3, 0.7)),
                 periods, lambda states, first: list(states.amplitudes))
    block = floquet._BLOCK_AMPLITUDES // shape.dim
    assert len(out) == periods
    assert len(out) // block > 1
    assert calls == {"to": 1, "from": 1}
