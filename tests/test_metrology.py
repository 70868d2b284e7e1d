import numpy as np
import pytest

from spindtc.errors import (ShapeError, StepSizeError,
                            DegenerateInformationError)
from spindtc.hilbert import SystemShape, CollectiveShape
from spindtc.floquet import DriveParams
from spindtc import metrology
from spindtc.metrology import (QfiMatrix, qfi_matrix, weighted_uncertainty,
                               sensing_gain, fit_power_law)

from qfi_reference import exact_qfi

SPECIAL = DriveParams.symmetric(np.pi, np.pi / 2)


def _matrix(f_ll, f_gg, f_lg):
    det = f_ll * f_gg - f_lg ** 2
    g = (f_ll + f_gg) / det if det > 0 else float("nan")
    return QfiMatrix(f_ll, f_gg, f_lg, g, 1, 1e-4, f_ll, f_gg, f_lg, False)


def test_zero_periods_gives_zero_matrix():
    q = qfi_matrix(SystemShape(3, 1), SPECIAL, 0)
    assert q.f_ll == 0.0 and q.f_gg == 0.0 and q.f_lg == 0.0


def test_validation():
    sh = SystemShape(3, 1)
    with pytest.raises(StepSizeError):
        qfi_matrix(sh, SPECIAL, 4, delta=0.0)
    with pytest.raises(ShapeError):
        qfi_matrix(sh, SPECIAL, -1)
    with pytest.raises(ShapeError):
        qfi_matrix(sh, DriveParams(np.pi, 0.3, 0.4), 4)


def test_diagonal_elements_nonnegative():
    for n in (4, 12, 20):
        q = qfi_matrix(SystemShape(4, 2), DriveParams.symmetric(1.3, 0.7), n)
        assert q.f_ll >= -1e-6
        assert q.f_gg >= -1e-6


def test_global_phase_invariance():
    sh = SystemShape(4, 1)
    a = qfi_matrix(sh, SPECIAL, 16)
    b = qfi_matrix(sh, SPECIAL, 16, global_phase=1.7)
    assert a.f_ll == pytest.approx(b.f_ll, rel=1e-6)
    assert a.f_gg == pytest.approx(b.f_gg, rel=1e-6)
    assert a.f_lg == pytest.approx(b.f_lg, rel=1e-6, abs=1e-6)


def test_step_halving_convergence():
    # the primary elements are exact and do not depend on delta; halving it
    # moves the central-difference cross-check by under 0.1% of the matrix
    # scale, including its off-diagonal, which is 0 here
    sh = SystemShape(5, 1)
    a = qfi_matrix(sh, SPECIAL, 32, delta=1e-4)
    b = qfi_matrix(sh, SPECIAL, 32, delta=5e-5)
    scale = max(abs(a.f_ll), abs(a.f_gg), abs(a.f_lg), 1.0)
    for x, y in ((a.f_ll, b.f_ll), (a.f_gg, b.f_gg), (a.f_lg, b.f_lg)):
        assert abs(x - y) <= 1e-3 * scale
    assert abs(a.f_lg_crosscheck - b.f_lg_crosscheck) <= 1e-3 * scale


def test_time_quadratic_growth_f_ll():
    pts = []
    for n in range(8, 97, 8):
        q = qfi_matrix(SystemShape(5, 1), SPECIAL, n)
        pts.append((n, q.f_ll))
    slope, r2 = fit_power_law(pts)
    assert slope == pytest.approx(2.0, abs=0.1)


def test_weighted_uncertainty_diagonal():
    assert weighted_uncertainty(_matrix(3.0, 3.0, 0.0)) == pytest.approx(2 / 3)


def test_weighted_uncertainty_degenerate():
    with pytest.raises(DegenerateInformationError):
        weighted_uncertainty(_matrix(2.0, 2.0, 2.0))
    with pytest.raises(DegenerateInformationError):
        sensing_gain(_matrix(2.0, 2.0, 2.0))


def test_sensing_gain_is_inverse_of_g():
    q = _matrix(5.0, 3.0, 1.0)
    assert sensing_gain(q) == pytest.approx(1.0 / weighted_uncertainty(q))


def test_fit_power_law_exact():
    slope, r2 = fit_power_law([(x, 7 * x ** 2) for x in range(1, 11)])
    assert slope == pytest.approx(2.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, _ = fit_power_law([(x, 0.3 * x) for x in range(1, 8)])
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_fit_power_law_validation():
    with pytest.raises(ShapeError):
        fit_power_law([(1, 1), (2, 4)])
    with pytest.raises(ShapeError):
        fit_power_law([(1, 1), (2, 4), (-3, 9)])
    with pytest.raises(ShapeError):
        fit_power_law([(1, 1), (2, 0), (3, 9)])


def test_beta_classification_verified_subset():
    # size-scaling exponents of the sensing gain at n = 50, fitted inside one
    # congruence class of N_sat at a time; only the rows verified against the
    # exact reference are asserted (exact slopes, in order: 1.100, 1.230,
    # 0.4636, 1.124, 1.203, 0.945)
    cases = [
        (4, [4, 8], 1.0, 0.25),       # s=2, N=4j
        (4, [2, 6], 1.0, 0.25),       # s=2, N=4j+2
        # s=1, N=4j: exact F at n = 50 is (3954, 2508, 0) and
        # (13316, 2516, 0), gains 1534.607 and 2116.161, slope 0.4636
        (2, [4, 8], 0.4636, 0.05),
        (2, [5, 9], 1.0, 0.25),       # s=1, N=4j+1
        (2, [3, 7], 1.0, 0.25),       # s=1, N=4j+3
        (1, [4, 8], 1.0, 0.25),       # s=1/2, N=4j
    ]
    for two_s, sizes, expect, tol in cases:
        pts = []
        for n_sat in sizes:
            q = qfi_matrix(SystemShape(n_sat, two_s), SPECIAL, 50)
            pts.append((n_sat, sensing_gain(q)))
        slope = np.log(pts[1][1] / pts[0][1]) / np.log(pts[1][0] / pts[0][0])
        assert slope == pytest.approx(expect, abs=tol), (two_s, sizes, slope)


# exact Fisher elements at (pi, pi/2) from the tangent-propagation reference
PINNED = [
    (4, 2, 12, 216.0, 144.0, 0.0),
    (5, 1, 32, 458.75, 2466.0, 0.0),
    (6, 4, 48, 24192.0, 6912.0, 0.0),
]


@pytest.mark.parametrize("n_sat,two_s,n,f_ll,f_gg,f_lg", PINNED)
def test_exact_values_pinned(n_sat, two_s, n, f_ll, f_gg, f_lg):
    ref = exact_qfi(n_sat, two_s, np.pi, np.pi / 2, n)
    q = qfi_matrix(SystemShape(n_sat, two_s), SPECIAL, n)
    scale = max(f_ll, f_gg)
    for want, exact, got in ((f_ll, ref.f_ll, q.f_ll), (f_gg, ref.f_gg, q.f_gg),
                             (f_lg, ref.f_lg, q.f_lg)):
        assert abs(exact - want) <= 1e-9 * scale
        assert abs(got - exact) <= 1e-3 * scale
    assert not q.estimators_disagree


# every criterion-09 shape the dense reference can hold, at n = 48
CRITERION_09_SHAPES = [(n, 4) for n in range(2, 9)] + [(n, 1) for n in (2, 3, 5, 6, 7)]


@pytest.mark.parametrize("n_sat,two_s", CRITERION_09_SHAPES)
def test_exact_at_criterion_09_shapes(n_sat, two_s):
    # tangent propagation is exact: every element, on both layouts, equals
    # the dense reference to 1e-9 of the matrix scale (the forward-difference
    # overlap form gave f_lg = 0.514 against 0 at (7, 1/2), scale 1024)
    ref = exact_qfi(n_sat, two_s, np.pi, np.pi / 2, 48)
    for shape in (SystemShape(n_sat, two_s), CollectiveShape(n_sat, two_s)):
        q = qfi_matrix(shape, SPECIAL, 48)
        for got, want in ((q.f_ll, ref.f_ll), (q.f_gg, ref.f_gg),
                          (q.f_lg, ref.f_lg)):
            assert abs(got - want) <= 1e-9 * ref.scale, shape
        assert not q.estimators_disagree, shape


def test_disagreement_flag_detects_tangent_fault(monkeypatch):
    # the sign of the d_lambda source term flipped in the tangent path only:
    # d_lambda psi changes sign, so f_lg does, which the central-difference
    # cross-check catches at a drive point where f_lg (78.2) is not zero
    params = DriveParams.symmetric(1.3, 0.7)
    assert not qfi_matrix(SystemShape(4, 2), params, 12).estimators_disagree
    generators = metrology._generators
    monkeypatch.setattr(metrology, "_generators",
                        lambda shape: (generators(shape)[0], -generators(shape)[1]))
    assert qfi_matrix(SystemShape(4, 2), params, 12).estimators_disagree
