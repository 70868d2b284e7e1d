import itertools

import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.spin_algebra import coherent_axis_state, magnetic_numbers
from spindtc.hilbert import CollectiveShape, x_polarized_state
from spindtc.observables import trajectory_columns
from spindtc import floquet, observables
from spindtc.floquet import precompute, evolve, period_states
from spindtc.diagnostics import tabulated_period

from qubit_reference import (SystemShape, x_polarized, spread, drive,
                             magnetizations, entropy, oracle_unitaries,
                             oracle_evolve, u_squared_class,
                             two_period_residual_phases)


def _random_state(size, rng):
    """A normalized random state of the given array shape."""
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def test_tables_trivial_params():
    sh = CollectiveShape(3, 2)
    t = precompute(sh, 0.0, 1.3, 0.4)
    np.testing.assert_allclose(t.interaction_phases, 1.0, atol=1e-12)
    t = precompute(sh, 1.1, 0.0, 0.0)
    np.testing.assert_allclose(t.satellite_kick, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(t.central_kick, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_precompute_rejects_non_finite_angles(bad, monkeypatch):
    # a non-finite entry in any of the three angles is refused before a
    # table is built: in 0-d angles, in an array, and as a scalar broadcast
    # against arrays
    built = []
    kick = floquet._x_basis_kick
    monkeypatch.setattr(floquet, "_x_basis_kick",
                        lambda *args: built.append(args) or kick(*args))
    sh = CollectiveShape(3, 2)
    for k in range(3):
        scalars = [1.0, 1.0, 1.0]
        scalars[k] = bad
        arrays = [np.array([0.3, 1.0, 0.5]) for _ in range(3)]
        arrays[k] = np.array([0.3, bad, 0.5])
        broadcast = [np.array([0.3, 1.0, 0.5]) for _ in range(3)]
        broadcast[k] = bad
        for angles in (scalars, arrays, broadcast):
            with pytest.raises(ShapeError, match="finite"):
                precompute(sh, *angles)
    assert built == []
    precompute(sh, 1.0, 1.0, 1.0)
    assert len(built) == 2


def test_precompute_broadcasts_bitwise():
    # a scalar g against an array of lambdas gives bitwise the tables of g
    # expanded to the lambdas' shape, and each row is bitwise the tables of
    # its point alone
    shape = CollectiveShape(9, 5)
    lams, g = np.linspace(-3.0, 13.0, 37), 0.7
    full = np.full(lams.shape, g)
    stacked = precompute(shape, lams, g, g)
    expanded = precompute(shape, lams, full, full)
    singles = [precompute(shape, lam, g, g) for lam in lams]
    for name in ("interaction_phases", "satellite_kick", "central_kick"):
        got = getattr(stacked, name)
        assert got.shape == lams.shape + getattr(singles[0], name).shape
        assert got.tobytes() == getattr(expanded, name).tobytes()
        for row, single in zip(got, singles):
            assert row.tobytes() == getattr(single, name).tobytes()


def test_tables_unit_modulus():
    sh = CollectiveShape(4, 3)
    t = precompute(sh, 2.2, 0.7, 1.9)
    np.testing.assert_allclose(np.abs(t.interaction_phases), 1.0, atol=1e-12)
    for k in (t.satellite_kick, t.central_kick):
        np.testing.assert_allclose(k.conj().T @ k, np.eye(len(k)), atol=1e-12)


@pytest.mark.parametrize("shape", [CollectiveShape(3, 2), CollectiveShape(6, 3)])
def test_kick_factors_are_the_kick_in_the_x_basis(shape):
    # K_s X K_c^T in the x basis is the z-basis kick diagonal
    # exp(-i g_s m_sat - i g_c m_c), for one drive point and per row of
    # stacked tables; for one satellite K_s is the closed-form qubit rotation
    rng = np.random.default_rng(5)
    points = np.array([(1.1, 0.7, 2.3), (0.4, -1.9, 0.3)])
    m_sat, m_c = map(magnetic_numbers, shape.dims)
    for angles in (points[0], points):
        t = precompute(shape, *angles.T)
        _, g_s, g_c = (a[..., None, None] for a in angles.T)
        kick = np.exp(-1j * (g_s * m_sat[:, None] + g_c * m_c))
        rows = angles.shape[:-1]
        z = rng.normal(size=rows + shape.dims) + 1j * rng.normal(size=rows + shape.dims)
        want = z * kick
        x = t.satellite_kick @ floquet.to_x_basis(z, shape)
        got = floquet.from_x_basis(x @ t.central_kick, shape)
        np.testing.assert_allclose(got, want, atol=1e-12)
    g = 0.7
    half = precompute(CollectiveShape(1, 1), 0.0, g, g).satellite_kick
    np.testing.assert_allclose(half, [[np.cos(g / 2), -1j * np.sin(g / 2)],
                                      [-1j * np.sin(g / 2), np.cos(g / 2)]],
                               atol=1e-15)


def test_double_interaction_at_2pi_single_pair():
    # n_sat=1, two_s=1: U_0^2 at lambda=2pi is -identity (pure global phase);
    # with g = 0 two periods are U_0^2
    sh = CollectiveShape(1, 1)
    t = precompute(sh, 2 * np.pi, 0.0, 0.0)
    rng = np.random.default_rng(0)
    st = _random_state(sh.dims, rng)
    ref = st.copy()
    evolve(st, t, 2)
    np.testing.assert_allclose(st, -ref, atol=1e-12)


def test_kick_rotates_x_to_y():
    # with lambda = 0 one period is the kick alone
    sh = CollectiveShape(1, 1)
    t = precompute(sh, 0.0, np.pi / 2, np.pi / 2)
    st = x_polarized_state(sh)
    evolve(st, t, 1)
    plus_y = coherent_axis_state(1, "y", "+")
    target = np.outer(plus_y, plus_y)
    assert abs(np.vdot(st, target)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_kick_pi_flips_x():
    sh = CollectiveShape(2, 2)
    t = precompute(sh, 0.0, np.pi, np.pi)
    st = x_polarized_state(sh)
    evolve(st, t, 1)
    minus_x = coherent_axis_state(2, "x", "-")
    target = np.outer(minus_x, minus_x)
    assert abs(np.vdot(st, target)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_many_periods():
    sh = CollectiveShape(5, 3)
    t = precompute(sh, 1.37, 0.81, 2.05)
    st = x_polarized_state(sh)
    (norms,) = evolve(st, t, 100, lambda states: (
        np.linalg.norm(states, axis=(-2, -1)),))
    assert len(norms) == 100
    assert max(abs(n - 1.0) for n in norms) < 1e-12
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12


def test_shape_mismatch_rejected():
    # evolve and period_states take a state whose last two axes are the
    # tables' (n_sat + 1, 2s + 1), (3, 2) here, and refuse any other before
    # a period runs, period_states at the call rather than at the first
    # period asked for: the observer is never called and the state is left
    # as it was
    sh = CollectiveShape(2, 1)
    t = precompute(sh, 1, 1, 1)
    flat = x_polarized_state(sh).ravel()        # the old flat layout
    calls = []
    for st in (x_polarized_state(CollectiveShape(3, 1)), flat,
               np.tile(flat, (4, 1)), x_polarized_state(sh).T.copy(),
               np.ones(3, dtype=complex)):
        ref = st.copy()
        for periods in (0, 1, 5):
            with pytest.raises(ShapeError, match=r"\(3, 2\)"):
                evolve(st, t, periods, calls.append)
        with pytest.raises(ShapeError, match=r"\(3, 2\)"):
            period_states(st, t)
        assert calls == []
        np.testing.assert_array_equal(st, ref)


def test_evolve_zero_periods():
    # zero periods observe nothing and leave the state untouched, alone and
    # in a stack
    sh = CollectiveShape(3, 1)
    calls = []
    for st, angles in ((x_polarized_state(sh), (1, 1, 1)),
                       (np.array([x_polarized_state(sh), np.eye(4, 2)]),
                        ([1, 0.3], [1, 2], [1, 1]))):
        ref = st.copy()
        out = evolve(st, precompute(sh, *angles), 0, calls.append)
        assert out == ()
        assert calls == []
        np.testing.assert_array_equal(st, ref)
        with pytest.raises(ShapeError):
            evolve(st, precompute(sh, *angles), -1)
        np.testing.assert_array_equal(st, ref)


def test_evolve_writes_the_final_state_into_its_argument():
    # evolve overwrites the array it is given, in place, with the z-basis
    # state of its last period: the one period_states reaches, rotated back
    sh = CollectiveShape(4, 3)
    gs = [0.7, 0.4]
    t = precompute(sh, [1.3, 2.9], gs, gs)
    start = np.array([x_polarized_state(sh),
                      _random_state(sh.dims, np.random.default_rng(3))])
    buffer = np.zeros((4,) + sh.dims, dtype=complex)
    buffer[1:3] = start
    for periods in (1, 7):
        view = buffer[1:3]
        evolve(view, t, periods)
        x = next(itertools.islice(period_states(start, t), periods - 1, None))
        np.testing.assert_array_equal(buffer[1:3],
                                      floquet.from_x_basis(x, sh))
        assert not buffer[[0, 3]].any()
        buffer[1:3] = start
    # a real array cannot hold the final state: refused before any period,
    # and left as it was
    real = start.real.copy()
    for periods in (0, 3):
        with pytest.raises(ShapeError, match="complex"):
            evolve(real, t, periods)
    np.testing.assert_array_equal(real, start.real)


def test_period_doubling_revival():
    sh = CollectiveShape(9, 5)
    st = x_polarized_state(sh)
    ref = st.copy()
    t = precompute(sh, 2 * np.pi, 3.0, 3.0)
    evolve(st, t, 2)
    assert abs(np.vdot(st, ref)) ** 2 \
        == pytest.approx(1.0, abs=1e-10)


def test_even_integer_cosine_magnetization():
    # (8, s=2) at lambda=2pi: residual rotation gives M_sat_x(2nT) = cos(2gn)/2
    sh = CollectiveShape(8, 4)
    g = 3.0
    st = x_polarized_state(sh)
    t = precompute(sh, 2 * np.pi, g, g)
    for n in range(1, 6):
        evolve(st, t, 2)
        got = observables.magnetizations(floquet.to_x_basis(st, sh))[0]
        assert got == pytest.approx(0.5 * np.cos(2 * g * n), abs=1e-9)


def test_u_squared_class_table():
    assert u_squared_class(9, 5) == "revival_both"
    assert u_squared_class(9, 4) == "satellite_rotation_only"
    assert u_squared_class(8, 5) == "central_rotation_only"
    assert u_squared_class(8, 4) == "both_rotate"


@pytest.mark.parametrize("n_sat,two_s", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_two_period_closed_form(n_sat, two_s):
    # on the 2^n reference drive, over the whole space: the closed form the
    # collective engine is checked against (criterion 07)
    sh = SystemShape(n_sat, two_s)
    angles = (2 * np.pi, 0.83, 1.91)
    residual = two_period_residual_phases(sh, angles)
    rng = np.random.default_rng(n_sat * 10 + two_s)
    for _ in range(25):
        v = _random_state(sh.dim, rng)
        overlap = np.vdot(residual * v, drive(sh, angles, v, 2)[-1])
        assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_oracle_identity_at_zero():
    sh = SystemShape(2, 2)
    u_d, u_0 = oracle_unitaries(sh, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(u_d, np.eye(sh.dim), atol=1e-12)
    np.testing.assert_allclose(u_0, np.eye(sh.dim), atol=1e-12)


def test_oracle_unitarity():
    sh = SystemShape(3, 2)
    u_d, u_0 = oracle_unitaries(sh, (1.3, 0.7, 2.1))
    for u in (u_d, u_0):
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)


def test_engine_matches_oracle():
    full, sh = SystemShape(3, 4), CollectiveShape(3, 4)
    angles = (1.7, 0.9, 2.3)
    want = oracle_evolve(full, angles, x_polarized(full), 7)
    st = x_polarized_state(sh)
    evolve(st, precompute(sh, *angles), 7)
    assert np.max(np.abs(spread(full, st) - want)) < 1e-11


@pytest.mark.parametrize("n_sat,two_s", [(4, 2), (3, 3), (2, 2), (4, 3),
                                          (3, 2)])
def test_drive_symmetries_keep_trajectory_observables(n_sat, two_s):
    # lambda + 4pi, -lambda, g + 2pi and -g give every period the same
    # magnetizations, central entropy and fidelity to the start, on the
    # dense oracle; lambda + 2pi does too at even n_sat with integer s
    # ((4, 1) and (2, 1)), and only there; pi - g gives (-1)^n M(n) and
    # the same entropy at every shape
    sh = SystemShape(n_sat, two_s)
    start = x_polarized(sh)

    def observables(lam, g, periods=12):
        state, rows = start, []
        for _ in range(periods):
            state = oracle_evolve(sh, (lam, g, g), state, 1)
            rows.append([*magnetizations(sh, state), entropy(sh, state),
                         abs(np.vdot(start, state)) ** 2])
        return np.array(rows)

    lam, g = 2.3, 0.9
    want = observables(lam, g)
    assert np.ptp(want, axis=0).min() > 0.01    # every column moves
    for image in ((4 * np.pi - lam, g), (-lam, g), (lam + 4 * np.pi, g),
                  (lam, 2 * np.pi - g), (lam, -g)):
        assert np.max(np.abs(observables(*image) - want)) < 1e-10, image
    shifted = np.max(np.abs(observables(lam + 2 * np.pi, g) - want))
    if n_sat % 2 == 0 and two_s % 2 == 0:
        assert shifted < 1e-10
    else:
        assert shifted > 0.01
    mirror = observables(lam, np.pi - g)
    signs = (-1.0) ** np.arange(1, 13)
    np.testing.assert_allclose(mirror[:, :2], signs[:, None] * want[:, :2],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(mirror[:, 2], want[:, 2], rtol=0, atol=1e-10)


def test_collective_matches_full_engine():
    # the collective engine's states and records against the 2^n reference
    # drive, its states spread over the 2^n basis
    rng = np.random.default_rng(2025)
    points = [(rng.uniform(0, 4 * np.pi), rng.uniform(0, 2 * np.pi))
              for _ in range(20)]
    for n_sat, two_s in ((2, 1), (3, 2), (4, 3), (8, 4), (9, 5)):
        full, coll = SystemShape(n_sat, two_s), CollectiveShape(n_sat, two_s)
        start = x_polarized(full)
        for lam, g in points:
            angles = (lam, g, g)
            b = x_polarized_state(coll)
            np.testing.assert_allclose(spread(full, b), start, atol=1e-14)
            states = drive(full, angles, start, 50)
            columns = evolve(b, precompute(coll, *angles), 50,
                             trajectory_columns)
            assert np.max(np.abs(spread(full, b) - states[-1])) < 1e-10
            assert [c.shape for c in columns] == [(50,)] * 4
            for amps, values in zip(states, zip(*columns)):
                want = (*magnetizations(full, amps), entropy(full, amps),
                        abs(np.vdot(start, amps)) ** 2)
                assert np.max(np.abs(np.subtract(values, want))) < 1e-10


def test_collective_two_period_closed_form():
    full, sh = SystemShape(9, 4), CollectiveShape(9, 4)
    angles = (2 * np.pi, 0.83, 1.91)
    st = x_polarized_state(sh)
    want = two_period_residual_phases(full, angles) * x_polarized(full)
    evolve(st, precompute(sh, *angles), 2)
    assert abs(np.vdot(want, spread(full, st))) == \
        pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("shape,periods", [(CollectiveShape(8, 4), 1000),
                                           (CollectiveShape(3, 1), 5),
                                           (CollectiveShape(63, 64), 3)])
def test_recorder_called_once_per_block(shape, periods):
    # the observer sees each block once, and evolve joins what it returns
    # over the blocks in period order
    calls = []

    def stub(states):
        done = sum(dims[0] for dims in calls)
        calls.append(states.shape)
        k = len(states)
        return np.arange(done + 1, done + k + 1), np.zeros((k, 2))

    st = x_polarized_state(shape)
    tables = precompute(shape, 1.3, 0.7, 0.7)
    out = evolve(st, tables, periods, stub)
    block = max(1, floquet._BLOCK_AMPLITUDES // st.size)
    assert out[0].tolist() == list(range(1, periods + 1))
    assert out[1].shape == (periods, 2)
    assert len(calls) == -(-periods // block)
    firsts = np.cumsum([1] + [dims[0] for dims in calls[:-1]])
    assert firsts.tolist() == list(range(1, periods + 1, block))
    for dims in calls:
        assert dims[1:] == shape.dims
        assert dims[0] <= block
        assert dims[0] * st.size <= floquet._BLOCK_AMPLITUDES or dims[0] == 1
    # without an observer, or at zero periods, there is nothing to return
    assert evolve(st, tables, periods) == ()
    assert evolve(st, tables, 0, stub) == ()
    assert len(calls) == -(-periods // block)


def test_basis_changes_once_per_block(monkeypatch):
    # the drive stays in the x basis and the observer reads it there: one
    # rotation into it on entry and one out of it on exit, none per block
    calls = {"to": 0, "from": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(floquet, "to_x_basis",
                        counted("to", floquet.to_x_basis))
    monkeypatch.setattr(floquet, "from_x_basis",
                        counted("from", floquet.from_x_basis))
    shape, periods = CollectiveShape(8, 4), 1000
    st = x_polarized_state(shape)
    out = evolve(st, precompute(shape, 1.3, 0.7, 0.7), periods,
                 lambda states: (states,))
    block = floquet._BLOCK_AMPLITUDES // st.size
    assert out[0].shape == (periods,) + shape.dims
    assert periods // block > 1
    assert calls == {"to": 1, "from": 1}


def test_special_point_drive_is_a_phase_after_its_period():
    # at (pi, pi/2), U^r = c * 1 on the whole collective space, r being the
    # special HO-DTC period of the parity class (tabulated_period): 4 (even
    # n_sat, integer s), 12 (even, half-integer), 12 (odd, integer) and 24
    # (odd, half-integer). Three random states come back as one c times
    # themselves
    rng = np.random.default_rng(24)
    for n_sat, two_s in itertools.product(
            (1, 2, 3, 4, 5, 6, 9, 64, 199, 200, 201, 202), range(1, 9)):
        shape = CollectiveShape(n_sat, two_s)
        r = tabulated_period(shape, "special")
        start = np.array([_random_state(shape.dims, rng)
                          for _ in range(3)])
        state = start.copy()
        evolve(state, precompute(shape, [np.pi] * 3, np.pi / 2, np.pi / 2), r)
        c = np.vdot(start[0], state[0])
        assert abs(c) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state, c * start, rtol=0,
                                   atol=1e-12, err_msg=f"{shape}")
