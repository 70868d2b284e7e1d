"""Quantum Fisher information for joint (lambda, g) estimation.

The elements are the pure-state expression (Liu et al., J. Phys. A 53,
023001 (2020))

    F_ab = 4 Re[<d_a psi|d_b psi> - <d_a psi|psi><psi|d_b psi>],

with the derivative states propagated exactly alongside psi (exact
propagator derivatives as in Khaneja et al., J. Magn. Reson. 172, 296
(2005)): d_g of the kick is -i K times the kick, K = J^z + S^z, and d_lambda
of the interaction is i H times the interaction, H = J^x S^x, diagonal in
the joint x basis. There is no step size. A primary element within 1e-12 of
the matrix scale max(|F_ll|, |F_gg|) is rounding and reads 0.

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
elementwise; each of the four basis rotations of a period is one matrix
product over every row and shape: the satellite rotation of each shape on
its (satellite, row x central) matrix, and the central rotation, which every
shape shares, on the (shape x satellite x row, central) matrix. The 2^n
layout rotates every satellite qubit instead (floquet._rotate_all_satellites)
and walks one shape at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StepSizeError, DegenerateInformationError
from .hilbert import SystemShape, CollectiveShape, x_polarized_state
from .floquet import (DriveParams, magnetic_numbers, _STACK_ENTRIES,
                      _eigenbases, _rotate_all_satellites)

DEFAULT_DELTA = 1e-4
_ROUNDING_RTOL = 1e-12
_DISAGREEMENT_RTOL = 0.01
# psi, d_lambda psi, d_g psi, then psi at lambda +- step and g +- step
_ROWS = 7
# n_periods * J * s up to which the cross-check runs at the given delta: the
# largest at the criterion-09 shapes (48 * 4 * 2). The central difference
# errs by O((step * n_periods * J * s)^2), so larger walks shrink the step.
_CROSSCHECK_REACH = 384


@dataclass(frozen=True)
class QfiMatrix:
    """2x2 Fisher matrix elements, both estimators, and the Eq.-style G."""

    f_ll: float
    f_gg: float
    f_lg: float
    g_scalar: float          # (f_ll + f_gg) / det, nan when det <= 0
    n_periods: int
    delta: float             # the cross-check's step
    f_ll_crosscheck: float
    f_gg_crosscheck: float
    f_lg_crosscheck: float
    estimators_disagree: bool

    @property
    def determinant(self) -> float:
        return self.f_ll * self.f_gg - self.f_lg ** 2


def _generators(shape: SystemShape) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of K (z basis) and H (x basis) as (satellite, central)."""
    m_sat, m_c = magnetic_numbers(shape)
    return m_sat[:, None] + m_c[None, :], m_sat[:, None] * m_c[None, :]


def _element(d_a: np.ndarray, d_b: np.ndarray, psi: np.ndarray) -> float:
    val = np.vdot(d_a, d_b) - np.vdot(d_a, psi) * np.vdot(psi, d_b)
    return 4.0 * float(val.real)


def qfi_scan(scans, params: DriveParams, delta: float = DEFAULT_DELTA,
             global_phase: float = 0.0) -> list[list[QfiMatrix]]:
    """Fisher matrices at (lambda, g) for every (shape, period_counts) entry
    of scans: one list per entry, one matrix per count, in the given order
    (repeated shapes and counts, and zero counts, included).

    Each distinct shape is walked once, to its largest count over every
    entry that names it, and its elements are evaluated at every count as
    the walk passes it. Collective shapes of one central spin and one
    largest count walk together, smallest first, as many as fit
    _STACK_ENTRIES complex entries padded to the largest of them, so no
    shape walks longer than it would alone; a shape over that budget, or on
    the 2^n layout, walks alone. A shape's matrices are bitwise the same
    whatever shares its walk.

    The cross-check runs at step delta / max(1, n_max * J * s / 384), with
    n_max that largest count and J = n_sat/2 (QfiMatrix.delta reports it),
    so it keeps its accuracy at large n_sat. The step, and with it a row's
    cross-check fields and estimators_disagree, thus follows the longest
    count its shape is scanned to anywhere in scans; its primary elements
    depend on its shape and count alone. global_phase
    multiplies every evolved state; the elements are invariant under it
    (exposed so the invariance is testable).
    """
    scans = [(shape, list(counts)) for shape, counts in scans]
    if delta <= 0:
        raise StepSizeError(f"delta must be positive, got {delta}")
    for _, counts in scans:
        if any(n < 0 for n in counts):
            raise ShapeError(f"n_periods must be >= 0, got {min(counts)}")
    if params.g_s != params.g_c:
        raise ShapeError("g is a single shared parameter; need g_s == g_c")
    wanted: dict[SystemShape, set[int]] = {}
    for shape, counts in scans:
        wanted.setdefault(shape, set()).update(counts)
    matrices = {}
    for group in _groups(wanted):
        matrices.update(_walk({shape: wanted[shape] for shape in group},
                              params, delta, global_phase))
    return [[matrices[shape, n] for n in counts] for shape, counts in scans]


def qfi_matrix(shape: SystemShape, params: DriveParams, n_periods: int,
               delta: float = DEFAULT_DELTA,
               global_phase: float = 0.0) -> QfiMatrix:
    """The Fisher matrix after n_periods periods: qfi_scan at one count."""
    return qfi_scan([(shape, [n_periods])], params, delta, global_phase)[0][0]


def _entries(shape: SystemShape) -> int:
    """Complex entries a collective shape holds in a walk padded to its
    size: the stack and its two phase tables, and two satellite rotations."""
    n, d = shape.n_sat + 1, shape.central_dim
    return 3 * _ROWS * n * d + 2 * n * n


def _groups(wanted: dict) -> list[list[SystemShape]]:
    """The shapes of wanted (shape -> period counts) partitioned into walks,
    smallest first (see qfi_scan)."""
    def kind(shape):        # what the shapes of one walk have in common
        return (isinstance(shape, CollectiveShape), shape.two_s,
                max(wanted[shape], default=0))
    groups = []
    for shape in sorted(wanted, key=lambda sh: (kind(sh), sh.n_sat)):
        group = groups[-1] if groups else None
        if (group and isinstance(shape, CollectiveShape)
                and kind(shape) == kind(group[0])
                and (len(group) + 1) * _entries(shape) <= _STACK_ENTRIES):
            group.append(shape)
        else:
            groups.append([shape])
    return groups


def _crosscheck_step(shape: SystemShape, counts, delta: float) -> float:
    """delta, scaled down where the walk's n_max * J * s passes
    _CROSSCHECK_REACH."""
    reach = max(counts, default=0) * shape.n_sat * shape.two_s / 4
    return delta / max(1, reach / _CROSSCHECK_REACH)


def _walk(wanted: dict, params: DriveParams, delta: float,
          global_phase: float) -> dict:
    """One tangent walk of the shapes of wanted (shape -> period counts):
    {(shape, count): QfiMatrix}."""
    shapes = list(wanted)
    lam, g = params.lam, params.g_s
    d = shapes[0].central_dim
    sizes = [shape.dim // d for shape in shapes]    # satellite dimensions
    full = (len(shapes), max(sizes), _ROWS, d)
    stack = np.zeros(full, dtype=complex)
    kick, interaction = np.zeros(full, dtype=complex), np.zeros(full, dtype=complex)
    k_gen, h_gen = np.zeros(full[:2] + (d,)), np.zeros(full[:2] + (d,))
    rotations, steps = [], []
    for i, (shape, n) in enumerate(zip(shapes, sizes)):
        step = _crosscheck_step(shape, wanted[shape], delta)
        points = [(lam, g)] * 3 + [(lam + step, g), (lam - step, g),
                                   (lam, g + step), (lam, g - step)]
        # one (row, satellite index, central level) entry per phase: the
        # kick diagonal in the z basis, the interaction's in the x basis
        lams, gs = np.array(points).T[:, :, None, None]
        m_sat, m_c = magnetic_numbers(shape)
        kick[i, :n] = (np.exp(-1j * gs * m_sat[:, None])
                       * np.exp(-1j * gs * m_c)).swapaxes(0, 1)
        interaction[i, :n] = np.exp(1j * lams * m_sat[:, None] * m_c).swapaxes(0, 1)
        k_gen[i, :n], h_gen[i, :n] = _generators(shape)
        stack[i, :n][:, [0, 3, 4, 5, 6]] = \
            x_polarized_state(shape).amplitudes.reshape(n, 1, d)
        v_s, v_c = _eigenbases(shape, "x")
        rotations.append(v_s)
        steps.append(step)
    # every shape of a walk shares the central spin and its rotation
    to_x_c, from_x_c = v_c.conj(), v_c.T

    if not isinstance(shapes[0], CollectiveShape):   # one shape, every qubit
        def rotate_satellites(x, u):
            _rotate_all_satellites(x.reshape(full[1], -1), shapes[0], u)
            return x
        to_x_s, from_x_s = v_s.conj().T, v_s
    else:
        def rotate_satellites(x, v):
            return (v @ x.reshape(full[0], full[1], -1)).reshape(full)
        to_x_s, from_x_s = _stacked(rotations, full[1])

    def rotate_central(x, v):
        return (x.reshape(-1, d) @ v).reshape(full)

    # the tangents' sources: -i K psi after the kick, i H psi after the
    # interaction
    k_source, h_source = 1j * k_gen, 1j * h_gen

    matrices = {}
    done = 0
    for count in sorted(set().union(*wanted.values())):
        for _ in range(count - done):
            stack *= kick
            stack[:, :, 2] -= k_source * stack[:, :, 0]
            stack = rotate_central(rotate_satellites(stack, to_x_s), to_x_c)
            stack *= interaction
            stack[:, :, 1] += h_source * stack[:, :, 0]
            stack = rotate_satellites(rotate_central(stack, from_x_c), from_x_s)
        done = count
        for i, (shape, n) in enumerate(zip(shapes, sizes)):
            if count in wanted[shape]:
                rows = stack[i, :n].swapaxes(0, 1)    # (row, satellite, central)
                if global_phase:
                    rows = rows * np.exp(1j * global_phase)
                matrices[shape, count] = _matrix(rows, count, steps[i])
    return matrices


def _stacked(rotations, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(V^H, V) of every shape's satellite x eigenbasis, zero-padded to
    size x size and stacked; a single shape's V is not copied."""
    if len(rotations) == 1:
        v = rotations[0][None]
        return v.conj().swapaxes(-1, -2), v
    to_x, from_x = (np.zeros((len(rotations), size, size), dtype=complex)
                    for _ in range(2))
    for i, v in enumerate(rotations):
        n = v.shape[0]
        to_x[i, :n, :n], from_x[i, :n, :n] = v.conj().T, v
    return to_x, from_x


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

    det = f_ll * f_gg - f_lg ** 2
    g_scalar = (f_ll + f_gg) / det if det > 0 else float("nan")
    return QfiMatrix(f_ll=f_ll, f_gg=f_gg, f_lg=f_lg, g_scalar=g_scalar,
                     n_periods=n_periods, delta=delta,
                     f_ll_crosscheck=cc_ll, f_gg_crosscheck=cc_gg,
                     f_lg_crosscheck=cc_lg, estimators_disagree=disagree)


def weighted_uncertainty(q: QfiMatrix) -> float:
    """G = (f_ll + f_gg) / (f_ll f_gg - f_lg^2), the equally-weighted
    two-parameter uncertainty combination: delta_lambda^2 + delta_g^2 >= G.
    Small G means both parameters are simultaneously well resolved.
    """
    det = q.determinant
    if det <= 0:
        raise DegenerateInformationError(
            f"Fisher determinant {det:.3e} is not positive")
    return (q.f_ll + q.f_gg) / det


def sensing_gain(q: QfiMatrix, crosscheck: bool = False) -> float:
    """det(F)/tr(F), the inverse of weighted_uncertainty.

    This is the figure of merit whose growth tracks simultaneous two-parameter
    sensitivity (larger is better); scaling exponents are fit on it.
    """
    if crosscheck:
        f_ll, f_gg, f_lg = q.f_ll_crosscheck, q.f_gg_crosscheck, q.f_lg_crosscheck
    else:
        f_ll, f_gg, f_lg = q.f_ll, q.f_gg, q.f_lg
    det = f_ll * f_gg - f_lg ** 2
    tr = f_ll + f_gg
    if det <= 0 or tr <= 0:
        raise DegenerateInformationError(
            f"Fisher matrix degenerate (det={det:.3e}, tr={tr:.3e})")
    return det / tr


def fit_power_law(points) -> tuple[float, float]:
    """Least-squares slope of ln y vs ln x and its r squared."""
    pts = list(points)
    if len(pts) < 3:
        raise ShapeError(f"need at least 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ShapeError("power-law fit needs strictly positive x and y")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), r2
