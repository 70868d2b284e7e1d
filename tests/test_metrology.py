from dataclasses import astuple, replace
import itertools

import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.hilbert import CollectiveShape
from spindtc import metrology
from spindtc.diagnostics import tabulated_period
from spindtc.metrology import QfiMatrix, qfi_scan, DEFAULT_DELTA
from spindtc.floquet import _STACK_ENTRIES

from qfi_reference import exact_qfi, exact_collective_qfi

SPECIAL = (np.pi, np.pi / 2)     # (lambda, g)


def _matrix(f_ll, f_gg, f_lg):
    return QfiMatrix(f_ll, f_gg, f_lg, 1, 1e-4, f_ll, f_gg, f_lg, False)


def test_zero_periods_gives_zero_matrix():
    q = qfi_scan([(CollectiveShape(3, 1), [0])], *SPECIAL)[0][0]
    assert q.f_ll == 0.0 and q.f_gg == 0.0 and q.f_lg == 0.0


def test_validation():
    sh = CollectiveShape(3, 1)
    with pytest.raises(ShapeError):
        qfi_scan([(sh, [-1])], *SPECIAL)
    for bad in (np.nan, np.inf, -np.inf):
        for lam, g in ((bad, np.pi / 2), (np.pi, bad)):
            with pytest.raises(ShapeError, match="finite"):
                qfi_scan([(sh, [4])], lam, g)


def test_diagonal_elements_nonnegative():
    for n in (4, 12, 20):
        q = qfi_scan([(CollectiveShape(4, 2), [n])], 1.3, 0.7)[0][0]
        assert q.f_ll >= -1e-6
        assert q.f_gg >= -1e-6


def test_global_phase_invariance(monkeypatch):
    # the elements of the seven propagated rows and of the same rows times
    # a global phase e^{1.7i}
    evaluated = []

    def keep(stack, n_periods, delta):
        evaluated.append((stack.copy(), n_periods, delta))
        return matrix(stack, n_periods, delta)

    matrix = metrology._matrix
    monkeypatch.setattr(metrology, "_matrix", keep)
    a = qfi_scan([(CollectiveShape(4, 1), [16])], *SPECIAL)[0][0]
    (stack, n_periods, delta), = evaluated
    assert len(stack) == 7
    assert matrix(stack, n_periods, delta) == a
    b = matrix(stack * np.exp(1.7j), n_periods, delta)
    assert a.f_ll == pytest.approx(b.f_ll, rel=1e-6)
    assert a.f_gg == pytest.approx(b.f_gg, rel=1e-6)
    assert a.f_lg == pytest.approx(b.f_lg, rel=1e-6, abs=1e-6)


def test_step_halving_convergence(monkeypatch):
    # the primary elements are exact and do not depend on the step; halving
    # it moves the central-difference cross-check by under 0.1% of the
    # matrix scale, including its off-diagonal, which is 0 here
    sh = CollectiveShape(5, 1)
    assert DEFAULT_DELTA == 1e-4
    a = qfi_scan([(sh, [32])], *SPECIAL)[0][0]
    monkeypatch.setattr(metrology, "DEFAULT_DELTA", 5e-5)
    b = qfi_scan([(sh, [32])], *SPECIAL)[0][0]
    assert (a.delta, b.delta) == (1e-4, 5e-5)
    scale = max(abs(a.f_ll), abs(a.f_gg), abs(a.f_lg), 1.0)
    for x, y in ((a.f_ll, b.f_ll), (a.f_gg, b.f_gg), (a.f_lg, b.f_lg)):
        assert abs(x - y) <= 1e-3 * scale
    assert abs(a.f_lg_crosscheck - b.f_lg_crosscheck) <= 1e-3 * scale


def test_time_quadratic_growth_f_ll():
    counts = list(range(8, 97, 8))
    (row,) = qfi_scan([(CollectiveShape(5, 1), counts)], *SPECIAL)
    slope = np.polyfit(np.log(counts), np.log([q.f_ll for q in row]), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_weighted_uncertainty_diagonal():
    # g_scalar, the equally weighted bound on delta_lambda^2 + delta_g^2
    assert _matrix(3.0, 3.0, 0.0).g_scalar == pytest.approx(2 / 3)


def test_weighted_uncertainty_degenerate():
    # det = 0: neither figure exists; det > 0 with tr < 0: g_scalar exists,
    # the gain does not
    q = _matrix(2.0, 2.0, 2.0)
    assert np.isnan(q.g_scalar) and np.isnan(q.gain)
    q = _matrix(-3.0, -3.0, 0.0)
    assert q.g_scalar == -6.0 / 9.0 and np.isnan(q.gain)


def test_sensing_gain_is_inverse_of_g():
    q = _matrix(5.0, 3.0, 1.0)
    assert q.gain == 14.0 / 8.0
    assert q.g_scalar == 8.0 / 14.0
    assert q.gain == pytest.approx(1.0 / q.g_scalar)


def test_figures_follow_the_elements():
    # g_scalar and gain are computed from the elements and cannot be given
    q = _matrix(5.0, 3.0, 1.0)
    with pytest.raises(TypeError):
        QfiMatrix(5.0, 3.0, 1.0, 1, 1e-4, 5.0, 3.0, 1.0, False, 0.5)
    for name in ("g_scalar", "gain"):
        with pytest.raises(ValueError):
            replace(q, **{name: 0.5})
    moved = replace(q, f_lg=0.0)
    assert (moved.g_scalar, moved.gain) == (8.0 / 15.0, 15.0 / 8.0)
    # and in a scan, by the float operations of the elements
    for q in itertools.chain(*qfi_scan([(CollectiveShape(3, 1), [0, 8, 48]),
                                        (CollectiveShape(4, 2), [12])],
                                       *SPECIAL)):
        det, tr = q.f_ll * q.f_gg - q.f_lg ** 2, q.f_ll + q.f_gg
        assert repr((q.g_scalar, q.gain)) == repr(
            (tr / det if det > 0 else float("nan"),
             det / tr if det > 0 and tr > 0 else float("nan")))


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
            q = qfi_scan([(CollectiveShape(n_sat, two_s), [50])], *SPECIAL)[0][0]
            pts.append((n_sat, q.gain))
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
    q = qfi_scan([(CollectiveShape(n_sat, two_s), [n])], *SPECIAL)[0][0]
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
    # tangent propagation is exact: every element equals the dense 2^n
    # reference to 1e-9 of the matrix scale (the forward-difference overlap
    # form gave f_lg = 0.514 against 0 at (7, 1/2), scale 1024)
    ref = exact_qfi(n_sat, two_s, np.pi, np.pi / 2, 48)
    q = qfi_scan([(CollectiveShape(n_sat, two_s), [48])], *SPECIAL)[0][0]
    for got, want in ((q.f_ll, ref.f_ll), (q.f_gg, ref.f_gg),
                      (q.f_lg, ref.f_lg)):
        assert abs(got - want) <= 1e-9 * ref.scale
    assert not q.estimators_disagree


def test_disagreement_flag_detects_tangent_fault(monkeypatch):
    # the sign of the d_lambda source term flipped in the tangent path only:
    # d_lambda psi changes sign, so f_lg does, which the central-difference
    # cross-check catches at a drive point where f_lg (78.2) is not zero
    (q,), = qfi_scan([(CollectiveShape(4, 2), [12])], 1.3, 0.7)
    assert not q.estimators_disagree
    generators = metrology._generators
    monkeypatch.setattr(metrology, "_generators",
                        lambda shape: (generators(shape)[0], -generators(shape)[1]))
    (q,), = qfi_scan([(CollectiveShape(4, 2), [12])], 1.3, 0.7)
    assert q.estimators_disagree


@pytest.mark.parametrize("n_sat", [16, 64, 128])
def test_exact_collective_rows_pinned(n_sat):
    # at (pi, pi/2), s = 2, n = 48 and n_sat = 4j the exact matrix is
    # f_ll = 576 N^2, f_gg = 1152 (N + 4), f_lg = 0, checked by the
    # collective dense reference beyond the 2^n reference's reach
    ref = exact_collective_qfi(n_sat, 4, np.pi, np.pi / 2, 48)
    want = (576.0 * n_sat ** 2, 1152.0 * (n_sat + 4), 0.0)
    scale = max(want[:2])
    q = qfi_scan([(CollectiveShape(n_sat, 4), [48])], *SPECIAL)[0][0]
    for pinned, exact, got in zip(want, (ref.f_ll, ref.f_gg, ref.f_lg),
                                  (q.f_ll, q.f_gg, q.f_lg)):
        assert abs(exact - pinned) <= 1e-9 * scale
        assert abs(got - exact) <= 1e-9 * scale
    assert not q.estimators_disagree


def test_s2_gain_exponent_of_the_pinned_forms():
    # README's N^0.98 for the sensing gain det/tr at s = 2: the least-squares
    # slope of ln(det/tr) on ln N over N = 8, 12, ..., 256, fitted on the
    # forms pinned above, without a walk over the 63 shapes (0.9767; the
    # walk's gains give the same slope and lie within 7.6e-14 of the forms,
    # relative)
    n = np.arange(8, 257, 4, dtype=float)
    f_ll, f_gg = 576.0 * n ** 2, 1152.0 * (n + 4)
    slope = np.polyfit(np.log(n), np.log(f_ll * f_gg / (f_ll + f_gg)), 1)[0]
    assert round(slope, 2) == 0.98


# ROADMAP item 3: odd n_sat = N with half-integer s (the odd_half class,
# whose milestones are the GHZ cat states) at (pi, pi/2), n = 48. The
# forms are fitted, not derived: quadratics in N fitted over 8 N for each
# N mod 4, then checked on every odd N up to 1003 (to 2.2e-13 of the matrix
# scale) and against the dense reference. f_lg = 0 in every case. Both
# f_ll and f_gg grow as N^2, so the sensing gain does: Heisenberg scaling
# for the pair of parameters.
def _odd_half_form(n_sat: int, two_s: int) -> tuple[int, int]:
    """Fitted (f_ll, f_gg) at s = 1/2 and 5/2."""
    n = n_sat
    return {(1, 1): (16 * n * n + 128 * n, 64 * n * n + 640 * n + 576),
            (1, 3): (16 * n * n, 64 * n * n - 384 * n + 576),
            (5, 1): (400 * n * n + 640 * n, 64 * n * n + 896 * n + 2880),
            (5, 3): (400 * n * n, 64 * n * n - 640 * n + 2880)}[two_s, n % 4]


def _assert_pinned(q, want, ref=None):
    """q's elements equal want = (f_ll, f_gg, f_lg) to 1e-12 of the matrix
    scale, and so do those of the dense reference ref, if given."""
    scale = max(want[:2])
    for i, field in enumerate(("f_ll", "f_gg", "f_lg")):
        assert abs(getattr(q, field) - want[i]) <= 1e-12 * scale, field
        if ref is not None:
            assert abs(getattr(ref, field) - want[i]) <= 1e-12 * scale, field
    assert not q.estimators_disagree


@pytest.mark.parametrize("n_sat", [9, 11])
@pytest.mark.parametrize("two_s", [1, 5])
def test_odd_half_forms_match_the_dense_reference(n_sat, two_s):
    # N = 9 and 11 are 1 and 3 mod 4; at (9, 1/2) the forms give 2448, 11520
    ref = exact_collective_qfi(n_sat, two_s, np.pi, np.pi / 2, 48)
    q = qfi_scan([(CollectiveShape(n_sat, two_s), [48])], *SPECIAL)[0][0]
    _assert_pinned(q, (*_odd_half_form(n_sat, two_s), 0.0), ref)


@pytest.mark.parametrize("n_sat,want", [(13, (24336.0, 9728.0, 0.0)),
                                        (15, (38160.0, 20736.0, 0.0))])
def test_odd_half_at_spin_three_halves(n_sat, want):
    # 2s = 3 mod 4: the linear term of f_ll sits at N = 3 mod 4 here,
    # 24336 = 144 * 13^2 and 38160 = 144 * 15^2 + 384 * 15
    ref = exact_collective_qfi(n_sat, 3, np.pi, np.pi / 2, 48)
    q = qfi_scan([(CollectiveShape(n_sat, 3), [48])], *SPECIAL)[0][0]
    _assert_pinned(q, want, ref)


@pytest.mark.parametrize("n_sat", [1001, 1003])
def test_odd_half_forms_on_the_walk_at_large_n_sat(n_sat):
    # beyond the dense reference's reach: the walk alone, s = 5/2
    q = qfi_scan([(CollectiveShape(n_sat, 5), [48])], *SPECIAL)[0][0]
    _assert_pinned(q, (*_odd_half_form(n_sat, 5), 0.0))


# ROADMAP item 8: exact (f_ll, f_gg) of nine more classes at (pi, pi/2),
# n = 48, each as its coefficients of (N^2, N, 1), with f_lg = 0. The
# integer-s forms hold on every N of their class measured in 16..128, the
# half-integer N = 2 mod 4 ones (with k = 2s: f_ll = 16 k N^2 +
# 32 k (k + 1) N, or 64 N at k = 1, and f_gg = 256 N^2 + 256 N + 256 k) on
# every N = 2 mod 4 in 16..256; each is pinned here on three N between 8
# and 64. A class with f_gg = 0 is README's "singular" one, whose gain is
# nan
@pytest.mark.parametrize("two_s,sizes,f_ll,f_gg", [
    (4, (9, 23, 61), (128, 384, 0), (0, 1280, 1024)),
    (4, (10, 30, 62), (576, 576, 0), (0, 1152, 0)),
    (2, (8, 32, 64), (144, 288, 0), (0, 0, 2304)),
    (2, (10, 30, 62), (144, 0, 0), (0, 0, 0)),
    (6, (10, 30, 62), (1296, 0, 0), (0, 0, 0)),
    (1, (10, 30, 62), (0, 64, 0), (256, 256, 256)),
    (3, (10, 30, 62), (48, 384, 0), (256, 256, 768)),
    (5, (10, 30, 62), (80, 960, 0), (256, 256, 1280)),
    (7, (10, 30, 62), (112, 1792, 0), (256, 256, 1792)),
], ids=["s2-odd", "s2-2mod4", "s1-0mod4", "s1-2mod4", "s3-2mod4",
        "s1/2-2mod4", "s3/2-2mod4", "s5/2-2mod4", "s7/2-2mod4"])
def test_exact_forms_of_five_classes(two_s, sizes, f_ll, f_gg):
    rows = qfi_scan([(CollectiveShape(n, two_s), [48]) for n in sizes],
                    *SPECIAL)
    for n, (q,) in zip(sizes, rows):
        want = [a * n * n + b * n + c for a, b, c in (f_ll, f_gg)]
        _assert_pinned(q, (*want, 0.0))


def test_fisher_information_grows_as_the_square_of_whole_periods():
    # U^r = c * 1 at (pi, pi/2), r the special HO-DTC period (4, 12, 12 and
    # 24 by parity class), so d_a(U^{kr}) psi = k c^{k-1} d_a(U^r) psi and
    # F(kr) = k^2 F(r) exactly, here at k = 2 and 4
    scans = []
    for n_sat, two_s in itertools.product((2, 3, 4, 5, 8, 9, 33, 101),
                                          range(1, 6)):
        shape = CollectiveShape(n_sat, two_s)
        r = tabulated_period(shape, "special")
        scans.append((shape, [r, 2 * r, 4 * r]))
    for (shape, _), (base, *multiples) in zip(scans, qfi_scan(scans, *SPECIAL)):
        for k, q in zip((2, 4), multiples):
            scale = max(abs(q.f_ll), abs(q.f_gg))
            np.testing.assert_allclose(
                [q.f_ll, q.f_gg, q.f_lg],
                [k * k * base.f_ll, k * k * base.f_gg, k * k * base.f_lg],
                rtol=0, atol=1e-12 * scale, err_msg=f"{shape}, k = {k}")


def _fields(q):
    return repr(astuple(q))      # nan-safe bitwise comparison


def test_scan_matches_single_walks():
    # one scan, padded walks included, equals one walk per shape bitwise,
    # in the order given, with a repeated shape and count and a zero count;
    # (200, 2) is over the entry budget and walks alone
    scans = [(CollectiveShape(6, 4), [40, 8, 0, 8, 24, 3])] + [
        (CollectiveShape(n, 4), [48]) for n in (3, 5, 6, 200, 40, 3)]
    got = qfi_scan(scans, 1.3, 0.7)
    assert [[q.n_periods for q in row] for row in got] == \
        [counts for _, counts in scans]
    for (shape, counts), row in zip(scans, got):
        assert [_fields(q) for q in row] == \
            [_fields(q) for q in qfi_scan([(shape, counts)], 1.3, 0.7)[0]]


def _group_sizes(wanted):
    return [[sh.n_sat for sh in group] for group in metrology._groups(wanted)]


def test_walk_groups_follow_the_entry_budget():
    shapes = [CollectiveShape(n, 4) for n in (256, 8, 128, 16, 64, 32)]
    assert _group_sizes({sh: {48} for sh in shapes}) \
        == [[8, 16, 32, 64], [128], [256]]
    assert 4 * metrology._entries(CollectiveShape(64, 4)) <= _STACK_ENTRIES
    assert metrology._entries(CollectiveShape(256, 4)) > _STACK_ENTRIES
    # other central spins never share a walk
    mixed = [CollectiveShape(3, 4), CollectiveShape(3, 1), CollectiveShape(4, 4)]
    assert sorted(map(len, metrology._groups({sh: {48} for sh in mixed}))) \
        == [1, 2]
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
    alone = qfi_scan([(shape, [1])], *SPECIAL)[0][0]
    walk = qfi_scan([(shape, [1, 48])], *SPECIAL)[0]
    scan = qfi_scan([(shape, [1]), (CollectiveShape(8, 4), [48]),
                     (shape, [48])], *SPECIAL)
    assert _fields(scan[0][0]) == _fields(walk[0])
    assert _fields(scan[2][0]) == _fields(walk[1])
    assert walk[0].delta == DEFAULT_DELTA / 16 and alone.delta == DEFAULT_DELTA
    assert (walk[0].f_ll, walk[0].f_gg, walk[0].f_lg) == \
        (alone.f_ll, alone.f_gg, alone.f_lg)


def test_lone_walk_holds_one_satellite_rotation(monkeypatch):
    # a shape walking alone holds its rotation as the real V^T and V,
    # together the bytes of one complex matrix (the complex walk held V^H
    # beside the shared V); the satellite products are the walk's only
    # ones with a stack of matrices on the left
    shape = CollectiveShape(2, 3)
    v = metrology._eigenbases(shape)[0]
    held = []

    def matmul(a, b, **kw):
        if a.ndim == 3:
            held.append(a)
        return real(a, b, **kw)

    real = np.matmul
    monkeypatch.setattr(np, "matmul", matmul)
    qfi_scan([(shape, [1])], *SPECIAL)
    to_x, from_x = held
    assert to_x.dtype == from_x.dtype == np.float64
    assert to_x.shape == from_x.shape == (1, 3, 3)
    assert to_x.nbytes + from_x.nbytes == v.astype(complex).nbytes
    assert np.array_equal(to_x[0], v.T) and np.array_equal(from_x[0], v)


def test_scan_repeats_bitwise_after_another_scan():
    # every walk fills its own stacks: a scan run again, after a scan of
    # other shapes, counts and drive point, gives the same rows bitwise
    scans = [(CollectiveShape(n, 4), [8, 48]) for n in (3, 12, 7)] + [
        (CollectiveShape(200, 4), [5]), (CollectiveShape(4, 1), [5, 9])]
    first = qfi_scan(scans, *SPECIAL)
    qfi_scan([(CollectiveShape(n, 5), [30]) for n in (2, 40)]
             + [(CollectiveShape(12, 4), [48]), (CollectiveShape(3, 1), [7])],
             1.3, 0.7)
    assert [[_fields(q) for q in row] for row in qfi_scan(scans, *SPECIAL)] \
        == [[_fields(q) for q in row] for row in first]


def test_layouts_agree_at_criterion_09_shapes():
    # one scan of every criterion-09 shape, padded in two walks (s = 2 and
    # s = 1/2), equals the dense 2^n reference to 1e-9 of the matrix scale
    scans = [(CollectiveShape(n_sat, two_s), [48])
             for n_sat, two_s in CRITERION_09_SHAPES]
    rows = [row[0] for row in qfi_scan(scans, *SPECIAL)]
    for (n_sat, two_s), q in zip(CRITERION_09_SHAPES, rows):
        ref = exact_qfi(n_sat, two_s, np.pi, np.pi / 2, 48)
        for a, b in ((ref.f_ll, q.f_ll), (ref.f_gg, q.f_gg), (ref.f_lg, q.f_lg)):
            assert abs(a - b) <= 1e-9 * ref.scale
        # the cross-check keeps its step at every criterion-09 shape
        assert q.delta == DEFAULT_DELTA


def test_no_false_disagreement_at_large_n_sat():
    # the fixed step's central difference was off by 3.1%, 12% and 92% of
    # f_ll here; the step now shrinks with n_periods * J * s
    rows = qfi_scan([(CollectiveShape(n_sat, 4), [48])
                     for n_sat in (128, 256, 1000)], *SPECIAL)
    for n_sat, (q,) in zip((128, 256, 1000), rows):
        assert q.delta == DEFAULT_DELTA / (48 * n_sat * 4 / 4 / 384)
        assert abs(q.f_ll_crosscheck - q.f_ll) <= 1e-3 * q.f_ll
        assert not q.estimators_disagree, n_sat
