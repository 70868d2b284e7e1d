"""Quantum Fisher information for joint (lambda, g) estimation.

The elements are the pure-state expression (Liu et al., J. Phys. A 53,
023001 (2020))

    F_ab = 4 Re[<d_a psi|d_b psi> - <d_a psi|psi><psi|d_b psi>],

with the derivative states propagated exactly alongside psi (exact
propagator derivatives as in Khaneja et al., J. Magn. Reson. 172, 296
(2005)): d_g of the kick is -i K times the kick, K = J^z + S^z, and d_lambda
of the interaction is i H times the interaction, H = J^x S^x, diagonal in
the joint x basis. There is no step size. A primary element within 1e-12 of
the matrix scale max(|F_ll|, |F_gg|) is rounding and reads 0. From the
three primary elements each QfiMatrix computes its two figures of merit,
the uncertainty bound g_scalar and its inverse, the gain.

The same expression with central-difference derivative states (runs at
lambda +- step and g +- step) is the independent cross-check; any element
whose two values differ by more than 1% of the matrix scale is flagged
rather than hidden. The kick angle g shifts g_s and g_c together (one shared
parameter).

All seven states (psi, the two tangents, the four cross-check runs) walk as
one satellite-major stack (satellite, row, central level), and a scan stacks
several shapes of one central spin and one largest period count as (shape,
satellite, row, central level), zero-padded to the largest satellite
dimension. The kick and the interaction are diagonal in their bases and act
elementwise, in place. The x eigenbases are real (spin_algebra.x_eigenbasis
takes them from eigh of the real S^x), so each of the four basis rotations of
a period is one real matrix product on the stack's float view, where every
complex entry is a (real, imaginary) pair: the satellite rotation V^T or V
of each shape on its (satellite, 2 x row x central) matrix, and the central
rotation, which every shape shares, as kron(V_c, I_2) or kron(V_c^T, I_2) on
the (shape x satellite x row, 2 x central) matrix. The walk holds two
stacks, and each product writes from one into the other, so a period
allocates nothing.
"""

from dataclasses import dataclass, field

import numpy as np

from .hilbert import CollectiveShape, x_polarized_state
from .floquet import (check_periods, finite_angles, magnetic_numbers,
                      _STACK_ENTRIES, _eigenbases)

DEFAULT_DELTA = 1e-4
_ROUNDING_RTOL = 1e-12
_DISAGREEMENT_RTOL = 0.01
# psi, d_lambda psi, d_g psi, then psi at lambda +- step and g +- step
_ROWS = 7
# n_periods * J * s up to which the cross-check runs at DEFAULT_DELTA: the
# largest at the criterion-09 shapes (48 * 4 * 2). The central difference
# errs by O((step * n_periods * J * s)^2), so larger walks shrink the step.
_CROSSCHECK_REACH = 384


@dataclass(frozen=True)
class QfiMatrix:
    """2x2 Fisher matrix elements, both estimators, and the two figures of
    the elements F = [[f_ll, f_lg], [f_lg, f_gg]], computed here and only
    here:

    g_scalar = tr(F) / det(F), nan where det <= 0: the equally weighted
    two-parameter bound delta_lambda^2 + delta_g^2 >= g_scalar (Liu et
    al.), small when both parameters are resolved at once;
    gain = det(F) / tr(F), nan where det <= 0 or tr <= 0: its inverse, the
    figure whose growth tracks simultaneous sensitivity (larger is better),
    on which scaling exponents are fit.
    """

    f_ll: float
    f_gg: float
    f_lg: float
    n_periods: int
    delta: float             # the cross-check's step
    f_ll_crosscheck: float
    f_gg_crosscheck: float
    f_lg_crosscheck: float
    estimators_disagree: bool
    g_scalar: float = field(init=False)
    gain: float = field(init=False)

    def __post_init__(self):
        det, tr = self.f_ll * self.f_gg - self.f_lg ** 2, self.f_ll + self.f_gg
        object.__setattr__(self, "g_scalar", tr / det if det > 0 else np.nan)
        gain = det / tr if det > 0 and tr > 0 else np.nan
        object.__setattr__(self, "gain", gain)


def _generators(shape: CollectiveShape) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of K (z basis) and H (x basis) as (satellite, central)."""
    m_sat, m_c = map(magnetic_numbers, shape.dims)
    return m_sat[:, None] + m_c[None, :], m_sat[:, None] * m_c[None, :]


def _element(d_a: np.ndarray, d_b: np.ndarray, psi: np.ndarray) -> float:
    val = np.vdot(d_a, d_b) - np.vdot(d_a, psi) * np.vdot(psi, d_b)
    return 4.0 * float(val.real)


def qfi_scan(scans, lam: float, g: float) -> list[list[QfiMatrix]]:
    """Fisher matrices at the drive point (lam, g), g the kick angle of
    every spin, for every (shape, period_counts) entry of scans: one list
    per entry, one matrix per count, in the given order (repeated shapes
    and counts, and zero counts, included). Raises ShapeError on a negative
    count or a non-finite angle.

    Each distinct shape is walked once, to its largest count over every
    entry that names it, and its elements are evaluated at every count as
    the walk passes it. Shapes of one central spin and one largest count
    walk together, smallest first, as many as fit _STACK_ENTRIES complex
    entries padded to the largest of them, so no shape walks longer than it
    would alone; a shape over that budget walks alone. A shape's matrices
    are bitwise the same whatever shares its walk.

    The cross-check runs at step DEFAULT_DELTA / max(1, n_max * J * s / 384),
    with n_max that largest count and J = n_sat/2 (QfiMatrix.delta reports
    it), so it keeps its accuracy at large n_sat. The step, and with it a
    row's cross-check fields and estimators_disagree, thus follows the
    longest count its shape is scanned to anywhere in scans; its primary
    elements depend on its shape and count alone.
    """
    scans = [(shape, list(counts)) for shape, counts in scans]
    for _, counts in scans:
        check_periods(min(counts, default=0))
    finite_angles(lam, g)
    wanted: dict[CollectiveShape, set[int]] = {}
    for shape, counts in scans:
        wanted.setdefault(shape, set()).update(counts)
    matrices = {}
    for group in _groups(wanted):
        matrices.update(_walk({shape: wanted[shape] for shape in group},
                              lam, g))
    return [[matrices[shape, n] for n in counts] for shape, counts in scans]


def _entries(shape: CollectiveShape) -> int:
    """Complex entries a shape holds in a walk padded to its
    size: the two stacks and the two phase tables, the two tangent sources
    and their scratch row, and the two real satellite rotations (together
    one complex matrix)."""
    n, d = shape.n_sat + 1, shape.central_dim
    return 4 * _ROWS * n * d + 3 * n * d + n * n


def _groups(wanted: dict) -> list[list[CollectiveShape]]:
    """The shapes of wanted (shape -> period counts) partitioned into walks,
    smallest first (see qfi_scan)."""
    def kind(shape):        # what the shapes of one walk have in common
        return shape.two_s, max(wanted[shape], default=0)
    groups = []
    for shape in sorted(wanted, key=lambda sh: (kind(sh), sh.n_sat)):
        group = groups[-1] if groups else None
        if (group and kind(shape) == kind(group[0])
                and (len(group) + 1) * _entries(shape) <= _STACK_ENTRIES):
            group.append(shape)
        else:
            groups.append([shape])
    return groups


def _crosscheck_step(shape: CollectiveShape, counts) -> float:
    """DEFAULT_DELTA, scaled down where the walk's n_max * J * s passes
    _CROSSCHECK_REACH."""
    reach = max(counts, default=0) * shape.n_sat * shape.two_s / 4
    return DEFAULT_DELTA / max(1, reach / _CROSSCHECK_REACH)


def _walk(wanted: dict, lam: float, g: float) -> dict:
    """One tangent walk of the shapes of wanted (shape -> period counts) at
    (lam, g): {(shape, count): QfiMatrix}."""
    shapes = list(wanted)
    d = shapes[0].central_dim
    sizes = [shape.n_sat + 1 for shape in shapes]   # satellite dimensions
    full = (len(shapes), max(sizes), _ROWS, d)
    # each rotation writes from one stack into the other; other is written
    # whole before it is read
    stack, other = np.zeros(full, dtype=complex), np.empty(full, dtype=complex)
    kick, interaction = np.zeros(full, dtype=complex), np.zeros(full, dtype=complex)
    # the tangents' sources: -i K psi after the kick, i H psi after the
    # interaction
    k_source, h_source = (np.zeros(full[:2] + (d,), dtype=complex)
                          for _ in range(2))
    # each shape's real satellite rotations V^T and V, zero-padded
    to_x_s, from_x_s = (np.zeros(full[:2] + (full[1],)) for _ in range(2))
    steps = []
    for i, (shape, n) in enumerate(zip(shapes, sizes)):
        step = _crosscheck_step(shape, wanted[shape])
        points = [(lam, g)] * 3 + [(lam + step, g), (lam - step, g),
                                   (lam, g + step), (lam, g - step)]
        # one (row, satellite index, central level) entry per phase: the
        # kick diagonal in the z basis, the interaction's in the x basis
        lams, gs = np.array(points).T[:, :, None, None]
        m_sat, m_c = map(magnetic_numbers, shape.dims)
        kick[i, :n] = (np.exp(-1j * gs * m_sat[:, None])
                       * np.exp(-1j * gs * m_c)).swapaxes(0, 1)
        interaction[i, :n] = np.exp(1j * lams * m_sat[:, None] * m_c).swapaxes(0, 1)
        k_source[i, :n], h_source[i, :n] = (1j * gen for gen in _generators(shape))
        stack[i, :n][:, [0, 3, 4, 5, 6]] = x_polarized_state(shape)[:, None]
        v_s, v_c = _eigenbases(shape)
        to_x_s[i, :n, :n], from_x_s[i, :n, :n] = v_s.T, v_s
        steps.append(step)

    # the satellite rotation writes the state into other, on the
    # (shape, satellite, 2 x row x central) float views, and the central one
    # back into stack, in the joint x basis. Every shape of a walk shares the
    # central spin and its rotation, real on the (shape x satellite x row,
    # 2 x central) float view
    stack_sat, other_sat = (x.view(float).reshape(full[0], full[1], -1)
                            for x in (stack, other))
    to_x_c, from_x_c = np.kron(v_c, np.eye(2)), np.kron(v_c.T, np.eye(2))
    stack_c, other_c = (x.view(float).reshape(-1, 2 * d) for x in (stack, other))
    psi, d_l, d_g = stack[:, :, 0], stack[:, :, 1], stack[:, :, 2]
    scratch = np.empty_like(k_source)

    matrices = {}
    done = 0
    for count in sorted(set().union(*wanted.values())):
        for _ in range(count - done):
            stack *= kick
            d_g -= np.multiply(k_source, psi, out=scratch)
            np.matmul(to_x_s, stack_sat, out=other_sat)
            np.matmul(other_c, to_x_c, out=stack_c)
            stack *= interaction
            d_l += np.multiply(h_source, psi, out=scratch)
            np.matmul(stack_c, from_x_c, out=other_c)
            np.matmul(from_x_s, other_sat, out=stack_sat)
        done = count
        for i, (shape, n) in enumerate(zip(shapes, sizes)):
            if count in wanted[shape]:
                # (row, satellite, central), contiguous for the products
                rows = np.ascontiguousarray(stack[i, :n].swapaxes(0, 1))
                matrices[shape, count] = _matrix(rows, count, steps[i])
    return matrices


def _matrix(stack: np.ndarray, n_periods: int, delta: float) -> QfiMatrix:
    """Both estimators' elements from the propagated seven-row stack."""
    psi, d_l, d_g = stack[0], stack[1], stack[2]
    f_ll, f_gg, f_lg = (_element(d_l, d_l, psi), _element(d_g, d_g, psi),
                        _element(d_l, d_g, psi))
    scale = max(abs(f_ll), abs(f_gg))
    f_ll, f_gg, f_lg = (0.0 if abs(f) <= _ROUNDING_RTOL * scale else f
                        for f in (f_ll, f_gg, f_lg))

    c_l = (stack[3] - stack[4]) / (2.0 * delta)
    c_g = (stack[5] - stack[6]) / (2.0 * delta)
    cc_ll, cc_gg, cc_lg = (_element(c_l, c_l, psi), _element(c_g, c_g, psi),
                           _element(c_l, c_g, psi))
    disagree = any(abs(a - b) > _DISAGREEMENT_RTOL * scale
                   for a, b in ((f_ll, cc_ll), (f_gg, cc_gg), (f_lg, cc_lg)))
    return QfiMatrix(f_ll=f_ll, f_gg=f_gg, f_lg=f_lg, n_periods=n_periods,
                     delta=delta, f_ll_crosscheck=cc_ll, f_gg_crosscheck=cc_gg,
                     f_lg_crosscheck=cc_lg, estimators_disagree=disagree)
