"""Matrix-free application of the kick and interaction unitaries.

One drive period is: kick U_d = exp(-i g_c S_c^z) prod_i exp(-i g_s S_i^z),
then interaction U_0 = exp(i lambda sum_i S_i^x S_c^x). The kick is diagonal
in the joint z basis; the interaction is diagonal after rotating every
satellite qubit and the central spin into their x eigenbases. Period cost is
O(D * (n_sat + d)) instead of the dense O(D^2).

On a CollectiveShape the satellite factor is the Dicke ladder of
J = n_sat/2: its magnetic numbers are the J^z eigenvalues and its z<->x
rotation is one dense (n_sat+1)^2 matrix, the kicked-top reduction of
Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987), applied to two coupled spins.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, CapacityError
from .hilbert import SystemShape, CollectiveShape, PureState
from .spin_algebra import spin_matrices, axis_eigenbasis

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
ORACLE_MAX_DIM = 4096

# crude flop-proportional counter used by scaling and checkpoint tests
_op_count = 0


def reset_op_count() -> None:
    global _op_count
    _op_count = 0


def op_count() -> int:
    return _op_count


@dataclass(frozen=True)
class DriveParams:
    """Interaction strength and the two kick angles (radians)."""

    lam: float
    g_s: float
    g_c: float

    @classmethod
    def symmetric(cls, lam: float, g: float) -> "DriveParams":
        return cls(lam=lam, g_s=g, g_c=g)


@dataclass(frozen=True)
class StepTables:
    """Precomputed diagonals and basis rotations for one drive period."""

    shape: SystemShape
    kick_phases: np.ndarray          # diagonal of U_d in the joint z basis
    interaction_phases: np.ndarray   # diagonal of U_0 in the joint x basis
    central_x_rotation: np.ndarray   # columns: x eigenbasis of the central spin
    # columns: x eigenbasis of the collective satellite spin; None on the
    # 2^n layout, which rotates every satellite qubit instead
    satellite_x_rotation: np.ndarray | None = None


def _popcounts(n_bits: int) -> np.ndarray:
    k = np.arange(1 << n_bits, dtype=np.int64)
    pc = np.zeros_like(k)
    for b in range(n_bits):
        pc += (k >> b) & 1
    return pc


def magnetic_numbers(shape: SystemShape) -> tuple[np.ndarray, np.ndarray]:
    """(total satellite S^z per satellite index, central S^z per level,
    descending).

    The same numbers are the S^x eigenvalues in the joint x basis.
    """
    n = shape.n_sat
    down = np.arange(n + 1) if isinstance(shape, CollectiveShape) else _popcounts(n)
    return n / 2.0 - down, shape.s - np.arange(shape.central_dim)


def precompute(shape: SystemShape,
               params: DriveParams | Sequence[DriveParams]) -> StepTables:
    """Build the phase tables and basis rotations for the shape.

    With a sequence of drive points the phase tables are stacked, one row
    per point, for a state stack with one row per point.
    """
    m_sat, m_c = magnetic_numbers(shape)
    single = isinstance(params, DriveParams)
    points = [params] if single else params
    # one (point, satellite index, central level) entry per phase
    lam, g_s, g_c = np.array([[p.lam, p.g_s, p.g_c] for p in points]).T[:, :, None, None]
    kick = np.exp(-1j * g_s * m_sat[:, None]) * np.exp(-1j * g_c * m_c)
    interaction = np.exp(1j * lam * m_sat[:, None] * m_c)
    rows = () if single else (len(points),)
    return StepTables(
        shape=shape,
        kick_phases=kick.reshape(rows + (-1,)),
        interaction_phases=interaction.reshape(rows + (-1,)),
        central_x_rotation=axis_eigenbasis(shape.two_s, "x"),
        satellite_x_rotation=(axis_eigenbasis(shape.n_sat, "x")
                              if isinstance(shape, CollectiveShape) else None),
    )


def _check(state: PureState, tables: StepTables) -> None:
    if state.shape != tables.shape:
        raise ShapeError(f"state shape {state.shape} != tables shape {tables.shape}")


def apply_kick(state: PureState, tables: StepTables) -> PureState:
    """Multiply by the kick diagonal (in place)."""
    global _op_count
    _check(state, tables)
    state.amplitudes *= tables.kick_phases
    _op_count += state.amplitudes.size
    return state


def _hadamard_all_satellites(amps: np.ndarray, shape: SystemShape) -> None:
    # self-inverse z<->x rotation on every satellite qubit
    inner = shape.central_dim
    for _ in range(shape.n_sat):
        v = amps.reshape(-1, 2, inner)
        top = (v[:, 0, :] + v[:, 1, :]) * _INV_SQRT2
        v[:, 1, :] = (v[:, 0, :] - v[:, 1, :]) * _INV_SQRT2
        v[:, 0, :] = top
        inner *= 2


def to_x_basis(mat: np.ndarray, tables: StepTables) -> np.ndarray:
    """Rotate states from the joint z basis to the joint x basis.

    mat holds states as (..., satellite index, central level), any leading
    axes, C-contiguous; it is overwritten on the 2^n layout. Returns the
    rotated states in the same shape.
    """
    vs = tables.satellite_x_rotation
    if vs is None:
        _hadamard_all_satellites(mat, tables.shape)   # every satellite qubit
    else:
        mat = vs.conj().T @ mat                       # the collective spin
    return mat @ tables.central_x_rotation.conj()


def from_x_basis(mat: np.ndarray, tables: StepTables) -> np.ndarray:
    """Inverse of to_x_basis, with the same layout and overwrite rules."""
    mat = mat @ tables.central_x_rotation.T
    vs = tables.satellite_x_rotation
    if vs is None:
        _hadamard_all_satellites(mat, tables.shape)
        return mat
    return vs @ mat


def apply_interaction(state: PureState, tables: StepTables) -> PureState:
    """Rotate to the joint x basis, multiply the diagonal, rotate back (in place)."""
    global _op_count
    _check(state, tables)
    shape = state.shape
    d = shape.central_dim
    states = state.amplitudes.shape[:-1] + (-1, d)   # (..., satellite, central)
    mat = to_x_basis(state.amplitudes.reshape(states), tables)
    mat *= tables.interaction_phases.reshape(mat.shape)
    state.amplitudes = from_x_basis(mat, tables).reshape(state.amplitudes.shape)
    sat_ops = 2 * shape.n_sat if tables.satellite_x_rotation is None \
        else 4 * (shape.n_sat + 1)
    _op_count += state.amplitudes.size * (sat_ops + 4 * d + 1)
    return state


def evolve(state: PureState, tables: StepTables, n_periods: int, recorder=None) -> list:
    """Apply (kick; interaction) n_periods times, recording after each period.

    state may be a stack of states, one row per drive point of stacked
    tables (see precompute). recorder, if given, is called as
    recorder(state, n) with n = 1..n_periods and its return values are
    collected into the returned list.
    """
    if n_periods < 0:
        raise ShapeError(f"n_periods must be >= 0, got {n_periods}")
    records = []
    for n in range(1, n_periods + 1):
        apply_kick(state, tables)
        apply_interaction(state, tables)
        if recorder is not None:
            records.append(recorder(state, n))
    return records


def u_squared_class(n_sat: int, two_s: int) -> str:
    """Parity classification of U^2 at lambda = 2*pi.

    Returns one of revival_both, satellite_rotation_only,
    central_rotation_only, both_rotate.
    """
    if n_sat < 1 or two_s < 1:
        raise ShapeError(f"invalid (n_sat={n_sat}, two_s={two_s})")
    odd_sat = n_sat % 2 == 1
    half_integer = two_s % 2 == 1
    if odd_sat and half_integer:
        return "revival_both"
    if odd_sat:
        return "satellite_rotation_only"
    if half_integer:
        return "central_rotation_only"
    return "both_rotate"


def two_period_residual_phases(shape: SystemShape, params: DriveParams) -> np.ndarray:
    """Diagonal of the residual z-rotation that U^2 reduces to at lambda = 2*pi.

    Depending on the parity class this is exp(-i 2 g_s S_i^z) on the
    satellites and/or exp(-i 2 g_c S_c^z) on the central spin (identity when
    both parities protect their subsystem).
    """
    d = shape.central_dim
    label = u_squared_class(shape.n_sat, shape.two_s)
    m_sat, m_c = magnetic_numbers(shape)
    sat = np.exp(-2j * params.g_s * m_sat) if label in ("satellite_rotation_only", "both_rotate") \
        else np.ones(m_sat.size, dtype=complex)
    cen = np.exp(-2j * params.g_c * m_c) if label in ("central_rotation_only", "both_rotate") \
        else np.ones(d, dtype=complex)
    return (sat[:, None] * cen[None, :]).reshape(-1)


def _site_operator(shape: SystemShape, site: int, op2: np.ndarray) -> np.ndarray:
    left = np.eye(1 << (shape.n_sat - 1 - site))
    right = np.eye((1 << site) * shape.central_dim)
    return np.kron(left, np.kron(op2, right))


def _central_operator(shape: SystemShape, op: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(1 << shape.n_sat), op)


def _expm_hermitian(h: np.ndarray, prefactor: complex) -> np.ndarray:
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(prefactor * evals)) @ vecs.conj().T


def oracle_unitaries(shape: SystemShape, params: DriveParams) -> tuple[np.ndarray, np.ndarray]:
    """Dense (U_d, U_0) built from explicit operator sums; verification path."""
    if shape.dim > ORACLE_MAX_DIM:
        raise CapacityError(f"dense oracle limited to dim {ORACLE_MAX_DIM}, got {shape.dim}")
    sat_ops = spin_matrices(1)
    cen_ops = spin_matrices(shape.two_s)
    h_kick = params.g_c * _central_operator(shape, cen_ops.sz)
    h_int = np.zeros((shape.dim, shape.dim), dtype=complex)
    sxc = _central_operator(shape, cen_ops.sx)
    for i in range(shape.n_sat):
        h_kick = h_kick + params.g_s * _site_operator(shape, i, sat_ops.sz)
        h_int = h_int + _site_operator(shape, i, sat_ops.sx) @ sxc
    u_d = _expm_hermitian(h_kick, -1j)
    u_0 = _expm_hermitian(h_int, 1j * params.lam)
    return u_d, u_0


def oracle_evolve(shape: SystemShape, params: DriveParams, initial: PureState,
                  n_periods: int) -> PureState:
    """Evolve with dense matrix products; independent of the fast path."""
    u_d, u_0 = oracle_unitaries(shape, params)
    step = u_0 @ u_d
    amps = initial.amplitudes.copy()
    for _ in range(n_periods):
        amps = step @ amps
    return PureState(shape, amps)
