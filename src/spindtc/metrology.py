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
lambda +- delta and g +- delta) is the independent cross-check; any element
whose two values differ by more than 1% of the matrix scale is flagged
rather than hidden. All seven states are propagated as one stack through the
engine's shared basis rotations. The kick angle g shifts g_s and g_c
together (one shared parameter).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StepSizeError, DegenerateInformationError
from .hilbert import SystemShape, x_polarized_state
from .floquet import (DriveParams, precompute, magnetic_numbers, to_x_basis,
                      from_x_basis)

DEFAULT_DELTA = 1e-4
_ROUNDING_RTOL = 1e-12
_DISAGREEMENT_RTOL = 0.01


@dataclass(frozen=True)
class QfiMatrix:
    """2x2 Fisher matrix elements, both estimators, and the Eq.-style G."""

    f_ll: float
    f_gg: float
    f_lg: float
    g_scalar: float          # (f_ll + f_gg) / det, nan when det <= 0
    n_periods: int
    delta: float
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


def qfi_matrix(shape: SystemShape, params: DriveParams, n_periods: int,
               delta: float = DEFAULT_DELTA,
               global_phase: float = 0.0) -> QfiMatrix:
    """Fisher matrix at (lambda, g) by tangent propagation, with the
    central-difference cross-check at step delta.

    global_phase multiplies every evolved state; the elements are invariant
    under it (exposed so the invariance is testable).
    """
    if delta <= 0:
        raise StepSizeError(f"delta must be positive, got {delta}")
    if n_periods < 0:
        raise ShapeError(f"n_periods must be >= 0, got {n_periods}")
    if params.g_s != params.g_c:
        raise ShapeError("g is a single shared parameter; need g_s == g_c")
    lam, g = params.lam, params.g_s

    # rows: psi, d_lambda psi, d_g psi, then psi at lambda +- delta, g +- delta
    points = [(lam, g)] * 3 + [(lam + delta, g), (lam - delta, g),
                               (lam, g + delta), (lam, g - delta)]
    tables = precompute(shape, [DriveParams.symmetric(*p) for p in points])
    d = shape.central_dim
    kick = tables.kick_phases.reshape(len(points), -1, d)
    interaction = tables.interaction_phases.reshape(len(points), -1, d)
    k_gen, h_gen = _generators(shape)

    stack = np.zeros_like(kick)
    stack[[0, 3, 4, 5, 6]] = x_polarized_state(shape).amplitudes.reshape(-1, d)
    for _ in range(n_periods):
        stack *= kick
        stack[2] -= 1j * k_gen * stack[0]
        stack = to_x_basis(stack, tables)
        stack *= interaction
        stack[1] += 1j * h_gen * stack[0]
        stack = from_x_basis(stack, tables)
    if global_phase != 0.0:
        stack *= np.exp(1j * global_phase)

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
