from dataclasses import astuple

import numpy as np
import pytest

from spindtc.errors import (ShapeError, StepSizeError,
                            DegenerateInformationError)
from spindtc.hilbert import SystemShape, CollectiveShape
from spindtc.floquet import DriveParams
from spindtc import metrology
from spindtc.metrology import (QfiMatrix, qfi_matrix, qfi_scan,
                               weighted_uncertainty, sensing_gain,
                               fit_power_law, DEFAULT_DELTA)
from spindtc.floquet import _STACK_ENTRIES

from qfi_reference import exact_qfi, exact_collective_qfi

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


@pytest.mark.parametrize("n_sat", [16, 64, 128])
def test_exact_collective_rows_pinned(n_sat):
    # at (pi, pi/2), s = 2, n = 48 and n_sat = 4j the exact matrix is
    # f_ll = 576 N^2, f_gg = 1152 (N + 4), f_lg = 0, checked by the
    # collective dense reference beyond the 2^n reference's reach
    ref = exact_collective_qfi(n_sat, 4, np.pi, np.pi / 2, 48)
    want = (576.0 * n_sat ** 2, 1152.0 * (n_sat + 4), 0.0)
    scale = max(want[:2])
    q = qfi_matrix(CollectiveShape(n_sat, 4), SPECIAL, 48)
    for pinned, exact, got in zip(want, (ref.f_ll, ref.f_gg, ref.f_lg),
                                  (q.f_ll, q.f_gg, q.f_lg)):
        assert abs(exact - pinned) <= 1e-9 * scale
        assert abs(got - exact) <= 1e-9 * scale
    assert not q.estimators_disagree


def _fields(q):
    return repr(astuple(q))      # nan-safe bitwise comparison


def test_scan_matches_single_walks():
    # one scan, padded walks included, equals one walk per shape bitwise,
    # in the order given, with a repeated shape and count and a zero count;
    # (200, 2) is over the entry budget and walks alone
    params = DriveParams.symmetric(1.3, 0.7)
    scans = [(CollectiveShape(6, 4), [40, 8, 0, 8, 24, 3])] + [
        (CollectiveShape(n, 4), [48]) for n in (3, 5, 6, 200, 40, 3)]
    got = qfi_scan(scans, params)
    assert [[q.n_periods for q in row] for row in got] == \
        [counts for _, counts in scans]
    for (shape, counts), row in zip(scans, got):
        assert [_fields(q) for q in row] == \
            [_fields(q) for q in qfi_scan([(shape, counts)], params)[0]]


def _group_sizes(wanted):
    return [[sh.n_sat for sh in group] for group in metrology._groups(wanted)]


def test_walk_groups_follow_the_entry_budget():
    shapes = [CollectiveShape(n, 4) for n in (256, 8, 128, 16, 64, 32)]
    assert _group_sizes({sh: {48} for sh in shapes}) \
        == [[8, 16, 32, 64], [128], [256]]
    assert 4 * metrology._entries(CollectiveShape(64, 4)) <= _STACK_ENTRIES
    assert metrology._entries(CollectiveShape(256, 4)) > _STACK_ENTRIES
    # other central spins and the 2^n layout never share a walk
    mixed = [CollectiveShape(3, 4), CollectiveShape(3, 1), SystemShape(3, 4),
             CollectiveShape(4, 4)]
    assert sorted(map(len, metrology._groups({sh: {48} for sh in mixed}))) \
        == [1, 1, 2]
    # nor do other largest counts: a long time scan beside a size scan walks
    # alone, so the size scan's shapes are not carried for its 5000 periods
    wanted = {CollectiveShape(4, 4): {8, 5000}, CollectiveShape(8, 4): {48},
              CollectiveShape(16, 4): {0, 48}, CollectiveShape(32, 4): {48}}
    assert _group_sizes(wanted) == [[8, 16, 32], [4]]


def test_crosscheck_step_follows_the_shape_longest_count():
    # (128, 2) at n = 48 is past the step's reach (48 * 64 * 2 = 16 * 384):
    # a row at n = 1 takes the step of the shape's walk to 48 wherever that
    # count is asked, in its own entry or another, while its primary
    # elements are those of a walk to n = 1 alone
    shape = CollectiveShape(128, 4)
    alone = qfi_matrix(shape, SPECIAL, 1)
    walk = qfi_scan([(shape, [1, 48])], SPECIAL)[0]
    scan = qfi_scan([(shape, [1]), (CollectiveShape(8, 4), [48]),
                     (shape, [48])], SPECIAL)
    assert _fields(scan[0][0]) == _fields(walk[0])
    assert _fields(scan[2][0]) == _fields(walk[1])
    assert walk[0].delta == DEFAULT_DELTA / 16 and alone.delta == DEFAULT_DELTA
    assert (walk[0].f_ll, walk[0].f_gg, walk[0].f_lg) == \
        (alone.f_ll, alone.f_gg, alone.f_lg)


def test_lone_walk_holds_one_satellite_rotation():
    # a shape walking alone uses its tables' rotation as it is: the walk
    # holds V and V^H, as much as one unstacked walk
    v = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0].astype(complex)
    to_x, from_x = metrology._stacked([v], 3)
    assert np.shares_memory(from_x, v)
    assert np.array_equal(to_x[0], v.conj().T)


def test_layouts_agree_at_criterion_09_shapes():
    # one scan over both layouts: the collective shapes walk padded in two
    # stacks (s = 2 and s = 1/2), the 2^n shapes one at a time
    scans = [(layout(n_sat, two_s), [48]) for n_sat, two_s in CRITERION_09_SHAPES
             for layout in (SystemShape, CollectiveShape)]
    rows = [row[0] for row in qfi_scan(scans, SPECIAL)]
    for qubits, collective in zip(rows[::2], rows[1::2]):
        scale = max(abs(qubits.f_ll), abs(qubits.f_gg))
        for a, b in ((qubits.f_ll, collective.f_ll), (qubits.f_gg, collective.f_gg),
                     (qubits.f_lg, collective.f_lg)):
            assert abs(a - b) <= 1e-9 * scale
        # the cross-check keeps its step at every criterion-09 shape
        assert qubits.delta == collective.delta == DEFAULT_DELTA


def test_no_false_disagreement_at_large_n_sat():
    # the fixed step's central difference was off by 3.1%, 12% and 92% of
    # f_ll here; the step now shrinks with n_periods * J * s
    rows = qfi_scan([(CollectiveShape(n_sat, 4), [48])
                     for n_sat in (128, 256, 1000)], SPECIAL)
    for n_sat, (q,) in zip((128, 256, 1000), rows):
        assert q.delta == DEFAULT_DELTA / (48 * n_sat * 4 / 4 / 384)
        assert abs(q.f_ll_crosscheck - q.f_ll) <= 1e-3 * q.f_ll
        assert not q.estimators_disagree, n_sat
