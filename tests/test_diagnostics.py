import itertools
import re

import numpy as np
import pytest

from spindtc import floquet
from spindtc.errors import ShapeError, NotTabulatedError
from spindtc.hilbert import CollectiveShape, x_polarized_state
from spindtc.floquet import precompute, evolve
from spindtc.observables import trajectory_columns, magnetizations
from spindtc.diagnostics import (stroboscopic_average, relative_order_parameter,
                                 first_revival, REGIMES, lambda_2pi_taxonomy,
                                 tabulated_period, fit_cosine_amplitude,
                                 classify_subsystem, DEFAULT_REVIVAL_EPSILON)

from qubit_reference import SystemShape, x_polarized, drive


def _trajectory(n_sat, two_s, lam, g, periods):
    sh = CollectiveShape(n_sat, two_s)
    st = x_polarized_state(sh)
    return evolve(st, precompute(sh, lam, g, g),
                  periods, trajectory_columns)


def test_stroboscopic_average_constant():
    series = [0.5] * 101
    assert stroboscopic_average(series, 2, 50) == pytest.approx(0.5)


def test_stroboscopic_average_alternating():
    series = [0.5 * (-1) ** n for n in range(101)]
    assert stroboscopic_average(series, 2, 50) == pytest.approx(0.5)


def test_stroboscopic_average_cosine():
    # (8, s=2) at lambda=2pi, g=3: M(2nT) = cos(6n)/2, average is small
    series = [0.5 * np.cos(6.0 * n) for n in range(101)]
    avg = stroboscopic_average([series[n // 2] if n % 2 == 0 else 0.0
                                for n in range(202)], 2, 100)
    assert abs(avg) < 0.05


def test_stroboscopic_average_errors():
    with pytest.raises(ShapeError):
        stroboscopic_average([1.0] * 10, 2, 5)
    with pytest.raises(ShapeError):
        stroboscopic_average([1.0] * 10, 0, 1)


def test_relative_order_parameter_values():
    flip = [0.5 * (-1) ** (n + 1) for n in range(101)]
    o_dtc, o_dmf, o_rel = relative_order_parameter(flip, 100)
    assert o_dtc == pytest.approx(-0.5)
    assert o_dmf == pytest.approx(0.0)
    assert o_rel == pytest.approx(-0.5)
    o_dtc, o_dmf, o_rel = relative_order_parameter([0.5] * 101, 100)
    assert o_dtc == pytest.approx(0.0)
    assert o_dmf == pytest.approx(0.5)
    assert o_rel == pytest.approx(-0.5)
    assert relative_order_parameter([0.0] * 101, 100) == (0.0, 0.0, 0.0)
    with pytest.raises(ShapeError, match="too short"):
        relative_order_parameter([0.5] * 100, 100)


def test_relative_order_parameter_linearity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=51)
    b = rng.normal(size=51)
    ra = np.array(relative_order_parameter(a, 50))
    rb = np.array(relative_order_parameter(b, 50))
    rab = np.array(relative_order_parameter(a + 2 * b, 50))
    np.testing.assert_allclose(rab, ra + 2 * rb, atol=1e-12)


@pytest.mark.parametrize("rows", [None, 1, 3, 271])
def test_averages_sum_periods_in_order(rows):
    # a (periods + 1, rows) array, or a list of floats, averages bitwise as
    # the period loop does, whatever the number of rows
    rng = np.random.default_rng(rows)
    series = rng.normal(size=201 if rows is None else (201, rows))
    if rows is None:
        series = series.tolist()
    for stride in (1, 2, 3):
        count = 200 // stride
        want = sum(series[n * stride] for n in range(1, count + 1)) / count
        np.testing.assert_array_equal(stroboscopic_average(series, stride, count),
                                      want)
    o_dtc = sum((-1) ** n * series[n] for n in range(1, 201)) / 200
    o_dmf = sum(series[n] for n in range(1, 201)) / 200
    got = relative_order_parameter(series, 200)
    for a, b in zip(got, (o_dtc, o_dmf, o_dtc - o_dmf)):
        np.testing.assert_array_equal(a, b)


# the special HO-DTC period of each parity class at (pi, pi/2), keyed by
# (n_sat, 2s): the benchmark's four classify shapes
_SPECIAL_PERIODS = {(8, 4): 4, (8, 5): 12, (9, 4): 12, (9, 5): 24}


@pytest.mark.parametrize("n_sat,two_s,period",
                         [(*k, r) for k, r in _SPECIAL_PERIODS.items()])
def test_detect_period_special_points(n_sat, two_s, period):
    sh = CollectiveShape(n_sat, two_s)
    assert first_revival(_tables(sh, np.pi, np.pi / 2), period + 2) == period
    fidelity = _trajectory(n_sat, two_s, np.pi, np.pi / 2, period + 2)[3]
    assert fidelity[period - 1] > 1 - 1e-8


def test_detect_period_lambda_2pi():
    sh = CollectiveShape(9, 5)
    assert first_revival(_tables(sh, 2 * np.pi, 1.234), 6) == 2


def _tables(shape, lam, g):
    return precompute(shape, lam, g, g)


def _count_periods(monkeypatch):
    """Count the drive periods run, at the one generator every period of
    floquet runs through (floquet._drive, behind period_states)."""
    count = [0]

    def counted(x, tables, _real=floquet._drive):
        for x in _real(x, tables):
            count[0] += 1
            yield x

    monkeypatch.setattr(floquet, "_drive", counted)
    return count


@pytest.mark.parametrize("rows", [(), (3,)])
def test_evolve_draws_exactly_n_periods(monkeypatch, rows):
    # evolve fills each observer block from period_states and draws no
    # period beyond the block's rows: 0, 1, one block and one block plus
    # one period, for a single state (a block of 4096 // 45 = 91 periods
    # at (8, 2)) and a stack of three rows (4096 // 135 = 30)
    count = _count_periods(monkeypatch)
    sh = CollectiveShape(8, 4)
    tables = precompute(sh, 1.3, np.full(rows, 0.7), 0.7)
    block = floquet._BLOCK_AMPLITUDES // (np.prod(rows, dtype=int) * 45)
    for n in (0, 1, block, block + 1):
        count[0] = 0
        columns = evolve(np.broadcast_to(x_polarized_state(sh),
                                         rows + sh.dims).copy(),
                         tables, n, magnetizations)
        assert count == [n]
        assert all(len(c) == n for c in columns)


def test_drive_points_that_do_not_fit_the_state_are_refused(monkeypatch):
    # tables of two drive points do not broadcast into one state matrix or
    # into a stack of 3 or (3, 1) rows: evolve and first_revival (whose
    # start is one state matrix) raise ShapeError naming both shapes, before
    # any period, and leave the state as it was
    count = _count_periods(monkeypatch)
    sh = CollectiveShape(8, 4)
    tables = precompute(sh, [np.pi, np.pi / 2], np.pi / 2, np.pi / 2)
    calls = []
    for rows in ((), (3,), (3, 1)):
        st = np.broadcast_to(x_polarized_state(sh), rows + sh.dims).copy()
        with pytest.raises(ShapeError, match=re.escape(
                f"(2,) do not broadcast into state matrices of leading shape {rows}")):
            evolve(st, tables, 3, calls.append)
        np.testing.assert_array_equal(st, np.broadcast_to(x_polarized_state(sh), st.shape))
    with pytest.raises(ShapeError, match=re.escape("(2,) do not broadcast into "
                                                   "state matrices of leading shape ()")):
        first_revival(tables, 30)
    assert count == [0] and calls == []
    # one point's tables drive a stack of 3 rows, and two points' tables a
    # stack of 2 or of (3, 2) rows, each row as its point alone
    for lam, rows in ((np.pi, (3,)), ([np.pi, 1.3], (2,)), ([np.pi, 1.3], (3, 2))):
        st = np.broadcast_to(x_polarized_state(sh), rows + sh.dims).copy()
        m_sat, m_c = evolve(st, precompute(sh, lam, np.pi / 2, np.pi / 2), 3,
                            magnetizations)
        assert m_sat.shape == (3,) + rows
        for row in np.ndindex(rows):
            alone = evolve(x_polarized_state(sh),
                           precompute(sh, np.broadcast_to(lam, rows)[row],
                                      np.pi / 2, np.pi / 2), 3, magnetizations)
            np.testing.assert_allclose(m_sat[(slice(None),) + row], alone[0],
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", [CollectiveShape, SystemShape])
@pytest.mark.parametrize("n_sat,two_s,lam,g", [
    (8, 4, np.pi, np.pi / 2), (8, 5, np.pi, np.pi / 2),
    (9, 4, np.pi, np.pi / 2), (9, 5, np.pi, np.pi / 2),
    (8, 4, np.pi, np.pi / 4), (8, 4, np.pi / 2, np.pi / 2),
    (8, 4, 1.3, 0.7),           # no revival within 64 periods
])
def test_first_revival_matches_detect_period(layout, n_sat, two_s, lam, g):
    # first_revival stops at the first period of the whole recorded
    # trajectory whose fidelity to the start is above 1 - epsilon, and at
    # the one the 2^n reference drive shows
    sh = CollectiveShape(n_sat, two_s)
    tables = _tables(sh, lam, g)
    if layout is CollectiveShape:
        traj = evolve(x_polarized_state(sh), tables, 64, trajectory_columns)
        revived = np.flatnonzero(traj[3] > 1 - DEFAULT_REVIVAL_EPSILON)
        want = int(revived[0]) + 1 if revived.size else None
    else:
        full = SystemShape(n_sat, two_s)
        start = x_polarized(full)
        states = drive(full, (lam, g, g), start, 64)
        revived = np.abs(states @ start.conj()) ** 2 > 1 - DEFAULT_REVIVAL_EPSILON
        want = int(np.argmax(revived)) + 1 if revived.any() else None
    assert first_revival(tables, 64) == want
    if (lam, g) == (1.3, 0.7):
        assert want is None


def test_first_revival_stops_after_the_revival(monkeypatch):
    # at (pi, pi/2) each parity class revives at its special period r
    # (4, 12, 12, 24), after exactly r periods; asked for r - 1 periods it
    # drives those and finds none
    count = _count_periods(monkeypatch)
    for (n_sat, two_s), r in _SPECIAL_PERIODS.items():
        tables = _tables(CollectiveShape(n_sat, two_s), np.pi, np.pi / 2)
        count[0] = 0
        assert first_revival(tables, 64) == r
        assert count == [r]
        assert first_revival(tables, r) == r
        count[0] = 0
        assert first_revival(tables, r - 1) is None
        assert count == [r - 1]


def test_first_revival_without_revival_drives_max_periods(monkeypatch):
    count = _count_periods(monkeypatch)
    sh = CollectiveShape(8, 4)
    assert first_revival(_tables(sh, 1.3, 0.7), 50) is None
    assert count == [50]


def test_first_revival_validation():
    sh = CollectiveShape(2, 1)
    tables = _tables(sh, 1.0, 1.0)
    with pytest.raises(ShapeError, match="n_periods must be >= 0"):
        first_revival(tables, -1)
    with pytest.raises(ShapeError, match="empty trajectory"):
        first_revival(tables, 0)
    for epsilon in (0.0, 1.0, 2.0):
        with pytest.raises(ShapeError, match="epsilon"):
            first_revival(tables, 3, epsilon)


# ROADMAP item 3: the special HO-DTC and lambda = 2pi tables against the
# dynamics at the CLI's default points, up to n_sat in the hundreds, at the
# shapes measured to agree.
@pytest.mark.parametrize("n_sat,two_s", [(64, 1), (100, 4), (101, 5), (200, 5),
                                         (201, 4), (257, 3), (400, 5)])
def test_special_ho_table_at_large_n_sat(n_sat, two_s):
    sh = CollectiveShape(n_sat, two_s)
    period = first_revival(_tables(sh, np.pi, np.pi / 2), 64)
    assert period == tabulated_period(sh, "special")


def test_special_ho_table_has_one_small_shape_exception():
    # over n_sat = 1..40 and 2s = 1..8 (320 shapes), the x-polarized start
    # revives at the tabulated period within 100 periods at every shape but
    # (1, 1/2), where it revives at period 8, a third of its class's 24.
    # The table is not changed for it: U^24 is a phase there too
    # (test_floquet), so 24 is the period of the drive, and 8 that of the
    # start alone
    off = {}
    for n_sat, two_s in itertools.product(range(1, 41), range(1, 9)):
        sh = CollectiveShape(n_sat, two_s)
        period = first_revival(_tables(sh, np.pi, np.pi / 2), 100)
        if period != tabulated_period(sh, "special"):
            off[n_sat, two_s] = period
    assert off == {(1, 1): 8}


@pytest.mark.parametrize("n_sat,two_s", [(100, 4), (101, 5), (200, 3), (201, 1)])
def test_lambda_2pi_table_at_large_n_sat(n_sat, two_s):
    g = 3.0
    sh = CollectiveShape(n_sat, two_s)
    m_sat, m_c = evolve(x_polarized_state(sh), _tables(sh, 2 * np.pi, g), 64,
                        magnetizations)
    sat, cen, _ = lambda_2pi_taxonomy(sh)
    assert classify_subsystem([0.5, *m_sat], g, 0.5) == sat
    assert classify_subsystem([sh.s, *m_c], g, sh.s) == cen


def test_predict_lambda_2pi_table():
    assert lambda_2pi_taxonomy(CollectiveShape(9, 4)) == (
        "sinusoidal", "period doubling", "sub-system DTC")
    assert lambda_2pi_taxonomy(CollectiveShape(8, 5)) == (
        "period doubling", "sinusoidal", "sub-system DTC")
    assert lambda_2pi_taxonomy(CollectiveShape(9, 5))[2] == "eternal DTC"
    assert lambda_2pi_taxonomy(CollectiveShape(8, 4))[2] == "Rabi oscillation"


def test_predict_special_ho_table():
    # the time of each parity class's full revival, its last milestone
    for n_sat, two_s, period in ((8, 8, 4), (8, 5, 12), (9, 4, 12),
                                 (9, 5, 24), (1, 1, 24)):
        assert tabulated_period(CollectiveShape(n_sat, two_s),
                                "special") == period


def test_predict_regular_tables():
    assert tabulated_period(CollectiveShape(8, 8), "regular1") == 24
    assert tabulated_period(CollectiveShape(8, 8), "regular2") == 12
    assert tabulated_period(CollectiveShape(6, 4), "regular1") == 24
    with pytest.raises(NotTabulatedError):
        tabulated_period(CollectiveShape(9, 4), "regular1")
    with pytest.raises(NotTabulatedError):
        tabulated_period(CollectiveShape(8, 5), "regular2")
    for regime in ("no_such_regime", "lambda2pi"):
        with pytest.raises(ShapeError, match="no tabulated period"):
            tabulated_period(CollectiveShape(8, 4), regime)


def test_regime_table_holds_the_command_names_and_points():
    # classify's --regime values and each one's default (lambda, g)
    assert {name: point for name, (point, _) in REGIMES.items()} == {
        "lambda2pi": (2 * np.pi, 3.0), "special": (np.pi, np.pi / 2),
        "regular1": (np.pi, np.pi / 4), "regular2": (np.pi / 2, np.pi / 2)}


def test_regular_tables_hold_every_reachable_key():
    # even n_sat and integer s reach the keys (n_sat mod 4, s even?) with
    # n_sat mod 4 in {0, 2}: both tables hold all four
    for regime in ("regular1", "regular2"):
        for n_sat in (4, 6):
            for two_s in (2, 4):
                assert tabulated_period(CollectiveShape(n_sat, two_s),
                                        regime) in (12, 24)


# README's regular-table comparison as measured: first_revival over 100
# periods at the CLI's regular points, one list per 2s over n_sat = 2, 4,
# ..., 60. Ten of the 240 differ from the tables: (2, 1) at (pi, pi/4), and
# (2, 2) and s = 1 at n_sat = 4, 12, ..., 60 at (pi/2, pi/2). The tables are
# not asserted against these periods.
_REGULAR_REVIVALS = {
    (np.pi, np.pi / 4): {
        2: [6, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12,
            24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24],
        4: [24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
            24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24],
        6: [12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12,
            24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24],
        8: [24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
            24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24],
    },
    (np.pi / 2, np.pi / 2): {
        2: [24, 12, 24, 24, 24, 12, 24, 24, 24, 12, 24, 24, 24, 12, 24,
            24, 24, 12, 24, 24, 24, 12, 24, 24, 24, 12, 24, 24, 24, 12],
        4: [12, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24,
            12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12],
        6: [24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
            24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24],
        8: [24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24,
            12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12, 24, 12],
    },
}


def test_regular_points_revive_as_measured():
    for (lam, g), rows in _REGULAR_REVIVALS.items():
        for two_s, periods in rows.items():
            got = [first_revival(_tables(CollectiveShape(n_sat, two_s), lam, g),
                                 100) for n_sat in range(2, 61, 2)]
            assert got == periods, (lam, g, two_s)


def test_fit_cosine_amplitude():
    g = 3.0
    series = [0.5 * np.cos(2 * g * n) for n in range(40)]
    amp, resid = fit_cosine_amplitude(series, g)
    assert amp == pytest.approx(0.5, abs=1e-12)
    assert resid < 1e-12
    # an empty series has no basis to fit
    with pytest.raises(ShapeError, match="degenerate"):
        fit_cosine_amplitude([], g)


def test_classify_subsystem_labels():
    g = 3.0
    doubling = [0.5 * (-1) ** n for n in range(40)]
    assert classify_subsystem(doubling, g, 0.5) == "period doubling"
    # even entries are cos(2 g n)/2 sampled at integer n
    sinus = [0.5 * np.cos(2 * g * (n // 2)) if n % 2 == 0 else 0.3
             for n in range(80)]
    assert classify_subsystem(sinus, g, 0.5) == "sinusoidal"
    assert classify_subsystem([0.5] * 40, g, 0.5) == "frozen"
    # even entries alternating between 0.5 and 0 fit no cosine
    assert classify_subsystem([0.5 * (n % 4 == 0) for n in range(40)], g,
                              0.5) == "neither"
    # a cosine fits these exactly, but not with the amplitude maximum: a
    # vanished signal, one frozen at -maximum, and one of half the amplitude
    assert classify_subsystem([0.0] * 40, 1.1, 0.5) == "neither"
    assert classify_subsystem([-0.5] * 40, 0.0, 0.5) == "neither"
    assert classify_subsystem(0.25 * np.cos(1.1 * np.arange(40)), 1.1,
                              0.5) == "neither"
    # one point, m(0), measures nothing
    with pytest.raises(ShapeError, match="empty trajectory"):
        classify_subsystem([0.5], g, 0.5)


def test_classify_subsystem_needs_a_driven_even_period():
    # with one period the only even sample is the start, so any motion
    # would read as period doubling; two periods are the least that
    # classify reads
    with pytest.raises(ShapeError, match="at least 2 periods, got 1"):
        classify_subsystem([0.5, 0.1], 3.0, 0.5)
    assert classify_subsystem([0.5, -0.5, 0.5], 3.0, 0.5) == "period doubling"
