import numpy as np
import pytest

from spindtc.errors import ShapeError, NotTabulatedError
from spindtc.hilbert import SystemShape, CollectiveShape, x_polarized_state
from spindtc.floquet import DriveParams, precompute, evolve
from spindtc.observables import trajectory_records
from spindtc.diagnostics import (stroboscopic_average, relative_order_parameter,
                                 detect_period, predict_dtc_class,
                                 fit_cosine_amplitude, classify_subsystem)


def _trajectory(n_sat, two_s, lam, g, periods):
    sh = SystemShape(n_sat, two_s)
    st = x_polarized_state(sh)
    return evolve(st, precompute(sh, DriveParams.symmetric(lam, g)),
                  periods, trajectory_records)


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


def test_relative_order_parameter_linearity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=51)
    b = rng.normal(size=51)
    ra = np.array(relative_order_parameter(a, 50))
    rb = np.array(relative_order_parameter(b, 50))
    rab = np.array(relative_order_parameter(a + 2 * b, 50))
    np.testing.assert_allclose(rab, ra + 2 * rb, atol=1e-12)


@pytest.mark.parametrize("n_sat,two_s,period", [(8, 4, 4), (8, 5, 12),
                                                (9, 4, 12), (9, 5, 24)])
def test_detect_period_special_points(n_sat, two_s, period):
    traj = _trajectory(n_sat, two_s, np.pi, np.pi / 2, period + 2)
    report = detect_period(traj)
    assert report.detected_period == period
    assert report.revival_fidelity > 1 - 1e-8


def test_detect_period_lambda_2pi():
    traj = _trajectory(9, 5, 2 * np.pi, 1.234, 6)
    assert detect_period(traj).detected_period == 2


@pytest.mark.parametrize("n_sat,two_s,lam,g,periods,expected", [
    (9, 5, 2 * np.pi, 1.234, 12, 2),
    (8, 4, np.pi, np.pi / 2, 24, 4),
    (9, 5, np.pi, np.pi / 2, 64, 24),
    (8, 4, 1.3, 0.7, 64, None),
])
def test_magnetization_period(n_sat, two_s, lam, g, periods, expected):
    # the first shift p with |m[i + p] - m[i]| <= epsilon at every i, pinned
    # on the collective layout the CLI runs
    sh = CollectiveShape(n_sat, two_s)
    st = x_polarized_state(sh)
    traj = evolve(st, precompute(sh, DriveParams.symmetric(lam, g)),
                  periods, trajectory_records)
    assert detect_period(traj).magnetization_period == expected


def test_detect_period_validation():
    with pytest.raises(ShapeError):
        detect_period([])
    traj = _trajectory(2, 1, 1.0, 1.0, 3)
    with pytest.raises(ShapeError):
        detect_period(traj, epsilon=2.0)


def test_predict_lambda_2pi_table():
    p = predict_dtc_class(9, 4, "lambda_2pi")
    assert p.satellite_behavior == "sinusoidal"
    assert p.central_behavior == "period doubling"
    assert p.label == "sub-system DTC"
    assert predict_dtc_class(9, 5, "lambda_2pi").label == "eternal DTC"
    assert predict_dtc_class(8, 4, "lambda_2pi").label == "Rabi oscillation"


def test_predict_special_ho_table():
    assert predict_dtc_class(8, 8, "special_ho").period == 4
    assert predict_dtc_class(8, 5, "special_ho").period == 12
    assert predict_dtc_class(9, 4, "special_ho").period == 12
    assert predict_dtc_class(9, 5, "special_ho").period == 24


def test_predict_regular_tables():
    assert predict_dtc_class(8, 8, "regular_class_1").period == 24
    assert predict_dtc_class(8, 8, "regular_class_2").period == 12
    assert predict_dtc_class(6, 4, "regular_class_1").period == 24
    with pytest.raises(NotTabulatedError):
        predict_dtc_class(9, 4, "regular_class_1")
    with pytest.raises(NotTabulatedError):
        predict_dtc_class(8, 5, "regular_class_2")
    with pytest.raises(ShapeError):
        predict_dtc_class(8, 4, "no_such_regime")


def test_fit_cosine_amplitude():
    g = 3.0
    series = [0.5 * np.cos(2 * g * n) for n in range(40)]
    amp, resid = fit_cosine_amplitude(series, g)
    assert amp == pytest.approx(0.5, abs=1e-12)
    assert resid < 1e-12


def test_classify_subsystem_labels():
    g = 3.0
    doubling = [0.5 * (-1) ** n for n in range(40)]
    assert classify_subsystem(doubling, g, 0.5) == "period doubling"
    # even entries are cos(2 g n)/2 sampled at integer n
    sinus = [0.5 * np.cos(2 * g * (n // 2)) if n % 2 == 0 else 0.3
             for n in range(80)]
    assert classify_subsystem(sinus, g, 0.5) == "sinusoidal"
    assert classify_subsystem([0.5] * 40, g, 0.5) == "frozen"
