import itertools

import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.spin_algebra import coherent_axis_state, spin_matrices
from spindtc.hilbert import (CollectiveShape, x_polarized_state,
                             reduced_central_density, von_neumann_entropy)
from spindtc.floquet import precompute, evolve, to_x_basis, from_x_basis
from spindtc.observables import (magnetizations, trajectory_columns,
                                 product_series, is_product_line, series)
from spindtc.analytic_states import milestone_state
from spindtc import observables


def _shape_of(st):
    """The CollectiveShape of state matrices, from their last two axes."""
    return CollectiveShape(st.shape[-2] - 1, st.shape[-1] - 1)


def _x_magnetizations(st):
    """(satellite-averaged, central) <S^x> of z-basis state matrices, one
    value per row of a stack: magnetizations of the states turned into the
    x basis."""
    return magnetizations(to_x_basis(st, _shape_of(st)))


def test_x_polarized_magnetizations():
    sh = CollectiveShape(4, 5)
    m_sat, m_c = _x_magnetizations(x_polarized_state(sh))
    assert m_sat == pytest.approx(0.5, abs=1e-12)
    assert m_c == pytest.approx(2.5, abs=1e-12)


def test_z_product_magnetizations():
    sh = CollectiveShape(3, 2)
    st = np.outer(coherent_axis_state(3, "z", "+"),
                  coherent_axis_state(2, "z", "+"))
    assert _x_magnetizations(st)[0] == pytest.approx(0.0, abs=1e-12)


def test_product_series_holds_on_lambda_0_and_2pi_only():
    # one column per drive point, each the point's own series; off the two
    # lines, or with a negative period count, it refuses
    shape = CollectiveShape(3, 1)
    lams, gs = np.array([0.0, 2 * np.pi, 2 * np.pi]), np.array([0.3, 0.3, 1.1])
    series = product_series(shape, lams, gs, 5)
    for k, (lam, g) in enumerate(zip(lams, gs)):
        for column, single in zip(series, product_series(shape, lam, g, 5)):
            assert column.shape == (6, 3) and single.shape == (6,)
            assert column[:, k].tobytes() == single.tobytes()
    assert [c[0, 0] for c in series] == [0.5, 0.5, 0.0, 1.0]
    # a lambda on a line mod 4pi has that line's series
    on_lines = {0.0: (4 * np.pi, 8 * np.pi, -4 * np.pi, -0.0),
                2 * np.pi: (6 * np.pi, -2 * np.pi, 10 * np.pi)}
    for line, lams in on_lines.items():
        assert is_product_line(np.array(lams)).all()
        for lam in lams:
            assert is_product_line(lam)
            for column, want in zip(product_series(shape, lam, 1.1, 5),
                                    product_series(shape, line, 1.1, 5)):
                assert column.tobytes() == want.tobytes()
    for lam, periods in ((np.nextafter(2 * np.pi, 0.0), 5), (np.pi, 5),
                         (np.nextafter(4 * np.pi, 0.0), 5),
                         (np.nextafter(-2 * np.pi, 0.0), 5), (0.0, -1)):
        with pytest.raises(ShapeError):
            product_series(shape, [0.0, lam], 0.3, periods)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_rejects_non_finite_angles(bad):
    # refused wherever a point's columns come from: the closed form on
    # lambda = 0 and 2pi, or the engine, and alone or beside a finite point
    shape = CollectiveShape(8, 4)
    for lam, g in ((0.0, bad), (2 * np.pi, bad), (1.0, bad), (bad, 1.0),
                   ([0.0, 1.0], [0.3, bad]), ([0.0, 1.0], [bad, 0.3])):
        with pytest.raises(ShapeError, match="finite"):
            series(shape, lam, g, 3)
    for lam, g in ((0.0, bad), (bad, 0.3), ([0.0, 2 * np.pi], [0.3, bad])):
        with pytest.raises(ShapeError, match="finite"):
            product_series(shape, lam, g, 3)


def test_super_cat_magnetization_vanishes():
    sh = CollectiveShape(9, 5)
    m_sat, m_c = _x_magnetizations(milestone_state(sh, 3))
    assert m_sat == pytest.approx(0.0, abs=1e-10)
    assert m_c == pytest.approx(0.0, abs=1e-10)


def test_magnetization_matches_dense_operator_oracle():
    # J^x (x) 1 and 1 (x) S^x as dense Kronecker products, on the state
    # matrix read row by row (satellite index major, central level fastest)
    rng = np.random.default_rng(3)
    for n_sat, two_s in ((2, 1), (3, 2), (2, 3)):
        sh = CollectiveShape(n_sat, two_s)
        st = rng.normal(size=sh.dims) + 1j * rng.normal(size=sh.dims)
        st /= np.linalg.norm(st)
        m_sat, m_c = _x_magnetizations(st)
        v = st.ravel()
        total = np.kron(spin_matrices(n_sat).sx, np.eye(sh.central_dim))
        want_sat = np.vdot(v, total @ v).real / n_sat
        cen_op = np.kron(np.eye(n_sat + 1), spin_matrices(two_s).sx)
        want_cen = np.vdot(v, cen_op @ v).real
        assert m_sat == pytest.approx(want_sat, abs=1e-11)
        assert m_c == pytest.approx(want_cen, abs=1e-11)


def test_record_initial_state():
    # the identity drive: the one recorded period is the x-polarized start
    sh = CollectiveShape(3, 5)
    st = x_polarized_state(sh)
    columns = evolve(st, precompute(sh, 0.0, 0.0, 0.0), 1,
                     trajectory_columns)
    assert [c.shape for c in columns] == [(1,)] * 4
    m_sat, m_c, entropy, fid = (float(c[0]) for c in columns)
    assert m_sat == pytest.approx(0.5, abs=1e-12)
    assert m_c == pytest.approx(2.5, abs=1e-12)
    assert entropy == pytest.approx(0.0, abs=1e-12)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_record_ghz_entropy():
    sh = CollectiveShape(9, 5)
    st = x_polarized_state(sh)
    _, _, entropy, _ = evolve(
        st, precompute(sh, np.pi, np.pi / 2, np.pi / 2), 6,
        trajectory_columns)
    assert entropy[5] == pytest.approx(np.log(2), abs=1e-9)


def test_record_bounds_along_trajectory():
    sh = CollectiveShape(4, 3)
    st = x_polarized_state(sh)
    m_sat, m_c, entropy, fid = evolve(
        st, precompute(sh, 1.9, 0.7, 0.7), 40,
        trajectory_columns)
    assert (abs(m_sat) <= 0.5 + 1e-10).all()
    assert (abs(m_c) <= 1.5 + 1e-10).all()
    assert (-1e-12 <= entropy).all()
    assert ((0.0 <= fid) & (fid <= 1.0 + 1e-10)).all()


def test_series_picks_the_closed_form_or_the_engine():
    # points on lambda = 0 and 2pi mod 4pi take product_series, the others
    # the engine, in one call; each point's columns are bitwise those of the
    # point alone, and an engine point's are those of floquet.evolve on the
    # single state
    shape, periods = CollectiveShape(9, 5), 30
    lams = np.array([[0.0], [1.3], [2 * np.pi], [np.pi], [-2 * np.pi]])
    gs = np.array([0.7, 3.0, np.pi / 2])
    columns = series(shape, lams, gs, periods)
    assert [c.shape for c in columns] == [(periods + 1, 5, 3)] * 4
    for i, j in itertools.product(range(5), range(3)):
        lam, g = float(lams[i, 0]), float(gs[j])
        alone = series(shape, lam, g, periods)
        assert [c.shape for c in alone] == [(periods + 1,)] * 4
        for column, single in zip(columns, alone):
            assert column[:, i, j].tobytes() == single.tobytes()
        if is_product_line(lam):
            want = product_series(shape, lam, g, periods)
        else:
            want = evolve(x_polarized_state(shape),
                          precompute(shape, lam, g, g),
                          periods, trajectory_columns)
            want = [np.concatenate(([start], c)) for start, c in
                    zip((0.5, shape.s, 0.0, 1.0), want)]
        for column, single in zip(alone, want):
            assert column.tobytes() == single.tobytes()
    # period 0 is the start on both paths, zero periods included
    for lam in (2 * np.pi, 1.3):
        assert [c.tolist() for c in series(shape, lam, 0.7, 0)] == \
            [[0.5], [2.5], [0.0], [1.0]]
    assert [c[0].tolist() for c in columns] == \
        [np.full((5, 3), v).tolist() for v in (0.5, 2.5, 0.0, 1.0)]
    with pytest.raises(ShapeError, match="n_periods must be >= 0"):
        series(shape, 1.3, 0.7, -1)


def test_series_calls_the_engine_only_off_the_lines(monkeypatch):
    # product_series alone on the lines, one evolve call for every other
    # point of the call
    calls = []
    for name in ("evolve", "product_series"):
        def counted(*args, _name=name, _real=getattr(observables, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(observables, name, counted)
    shape = CollectiveShape(3, 1)
    series(shape, [0.0, 2 * np.pi, 6 * np.pi], 0.3, 8)
    assert calls == ["product_series"]
    series(shape, [0.0, 1.3, 2.0], 0.3, 8)
    assert calls == ["product_series"] * 2 + ["evolve"]
    series(shape, [1.3, 2.0], [[0.3], [0.4]], 8)
    assert calls == ["product_series"] * 2 + ["evolve"] * 2


@pytest.mark.parametrize("shape", [CollectiveShape(3, 2), CollectiveShape(8, 4)])
def test_stack_rows_match_single_states(shape):
    # three drive points evolved as one stack: every row's observables and
    # norm equal, bitwise, those of the same state evolved alone
    points = [(1.3, 0.7), (np.pi, np.pi / 2), (2 * np.pi, 3.0)]
    x = x_polarized_state(shape)
    stack = np.tile(x, (len(points), 1, 1))
    lams, gs = np.transpose(points)
    evolve(stack, precompute(shape, lams, gs, gs), 7)

    def observables(st):
        return [*_x_magnetizations(st),
                von_neumann_entropy(reduced_central_density(st))]

    rows = observables(stack)
    for b, p in enumerate(points):
        st = x.copy()
        evolve(st, precompute(shape, p[0], p[1], p[1]), 7)
        np.testing.assert_array_equal(stack[b], st)
        assert [float(v[b]) for v in rows] == [float(v) for v in observables(st)]
        assert np.linalg.norm(stack, axis=(-2, -1))[b] == \
            np.linalg.norm(st, axis=(-2, -1))


def _per_period_columns(shape, angles, periods):
    # the x-basis states of one evolve call, each period observed on its own
    # as a block of one
    st = x_polarized_state(shape)
    (states,) = evolve(st, precompute(shape, *angles), periods,
                       lambda block: (block,))
    return [np.concatenate(c) for c in zip(*(
        trajectory_columns(x[None]) for x in states))]


@pytest.mark.parametrize("shape,periods", [(CollectiveShape(8, 4), 5000),
                                           (CollectiveShape(63, 64), 30)])
def test_block_records_match_stepped_periods(shape, periods):
    # (8, 2) spans many observed blocks; the 64 x 65 state of (63, 32) is
    # over the block budget, so its blocks hold one period each
    angles = (1.3, 0.7, 0.7)
    st = x_polarized_state(shape)
    got = evolve(st, precompute(shape, *angles), periods, trajectory_columns)
    want = _per_period_columns(shape, angles, periods)
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def test_one_period_calls_match_one_call():
    # each evolve call enters and leaves the x basis once, so 5000 calls of
    # one period round differently from one call of 5000, within the
    # engine cross-check tolerance
    shape, periods = CollectiveShape(8, 4), 5000
    tables = precompute(shape, 1.3, 0.7, 0.7)
    whole = x_polarized_state(shape)
    got = evolve(whole, tables, periods, trajectory_columns)
    assert [c.shape for c in got] == [(periods,)] * 4
    st = x_polarized_state(shape)
    for n in range(1, periods + 1):
        evolve(st, tables, 1)
        want = _z_basis_observables(st)
        assert np.max(np.abs(np.subtract([c[n - 1] for c in got],
                                         want))) < 1e-10
    assert np.max(np.abs(st - whole)) < 1e-10


def _z_basis_observables(st):
    """(satellite <S^x>, central <S^x>, entropy, fidelity to the x-polarized
    start) of a z-basis state matrix, through the public functions."""
    return (*_x_magnetizations(st),
            von_neumann_entropy(reduced_central_density(st)),
            abs(np.vdot(st, x_polarized_state(_shape_of(st)))) ** 2)


def _dense_x_magnetizations(shape, z):
    """(satellite, central) <S^x> of a z-basis state matrix from spin
    matrices applied in the z basis, independent of the population sums."""
    central = np.vdot(z, z @ spin_matrices(shape.two_s).sx.T).real
    return np.vdot(z, spin_matrices(shape.n_sat).sx @ z).real / shape.n_sat, central


def _check_columns(shape, x, columns):
    # the columns read from one x-basis state equal the z-basis observables
    # of the same state, to 1e-12
    st = from_x_basis(x, shape)
    want = _z_basis_observables(st)[:len(columns)]
    assert np.max(np.abs(np.subtract(columns, want))) <= 1e-12
    assert np.max(np.abs(np.subtract(columns[:2],
                                     _dense_x_magnetizations(shape, st)))) <= 1e-12


@pytest.mark.parametrize("shape", [CollectiveShape(8, 4), CollectiveShape(6, 3)])
def test_recorded_columns_match_z_basis_observables(shape):
    # trajectory_columns reads the x-basis states evolve hands it: each of
    # its columns equals the x magnetizations, von_neumann_entropy and the
    # fidelity to the start of the matching z-basis state
    st = x_polarized_state(shape)
    xs, *columns = evolve(
        st, precompute(shape, 1.3, 0.7, 0.7), 40,
        lambda states: (states, *trajectory_columns(states)))
    for x, values in zip(xs, zip(*columns)):
        _check_columns(shape, x, values)


def test_recorded_stack_columns_match_z_basis_observables():
    # the phase map's columns, read from an x-basis stack at (9, 5/2), match
    # the z-basis observables of every row
    shape = CollectiveShape(9, 5)
    points = [(np.pi, np.pi / 2), (2 * np.pi, 3.0), (1.3, 0.7)]
    lams, gs = np.transpose(points)
    tables = precompute(shape, lams, gs, gs)
    stack = np.tile(x_polarized_state(shape), (len(points), 1, 1))
    xs, *columns = evolve(
        stack, tables, 30,
        lambda states: (states, *trajectory_columns(states)[:3]))
    for k, period in enumerate(xs):
        for row, values in zip(period, zip(*(c[k] for c in columns))):
            _check_columns(shape, row, values)
