"""Matrix-free Floquet drive of the kick and interaction unitaries.

One drive period is: kick U_d = exp(-i g_c S_c^z) prod_i exp(-i g_s S_i^z),
then interaction U_0 = exp(i lambda sum_i S_i^x S_c^x). The interaction is
diagonal in the joint x basis (every satellite qubit and the central spin
rotated into their x eigenbases), and evolve drives the state there: with X
the state as a (satellite index, central level) matrix, one period is
X <- (K_s X K_c^T) * P, P the interaction diagonal and
K = V^H diag(e^{-i g m}) V the kick of each spin in its x basis. It changes
basis once on entry and once on exit, and hands its recorder the states of
every period in the x basis, where each x magnetization is a population sum
weighted by magnetic_numbers. Period cost is O(D * (n_sat + d)) instead of
the dense O(D^2).

On a CollectiveShape the satellite factor is the Dicke ladder of
J = n_sat/2: its magnetic numbers are the J^z eigenvalues, its z<->x
rotation and K_s are dense (n_sat+1)^2 matrices, the kicked-top reduction of
Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987), applied to two coupled spins.
On the 2^n layout (the verification path) K_s is one 2x2 rotation applied to
every satellite qubit, and a period costs O(D * (2 n_sat + d)).
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, CapacityError
from .hilbert import SystemShape, CollectiveShape, PureState
from .spin_algebra import spin_matrices, axis_eigenbasis

ORACLE_MAX_DIM = 4096
# amplitudes of one block of recorded periods in evolve. Per-period Python
# work in the recorder is paid once per block, and beyond a few thousand
# amplitudes a longer block only holds more memory.
_BLOCK_AMPLITUDES = 1 << 12
# complex entries of one batched state stack and its per-row tables, shared
# by the sweep's grid stacks and metrology's Fisher walks. Per-period Python
# overhead is paid once per stack, so small stacks are slow, while beyond a
# few hundred rows the arithmetic dominates and a larger stack only holds
# more memory.
_STACK_ENTRIES = 1 << 16

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
    """One drive period in the joint x basis. Stacked tables (see
    precompute) carry a leading row axis on every entry."""

    shape: SystemShape
    # diagonal of U_0 in the joint x basis
    interaction_phases: np.ndarray
    # K_s, the satellite kick in the x basis: it multiplies the state matrix
    # from the left. (n_sat+1)^2 on the collective layout; on the 2^n layout
    # the 2x2 [[cos g/2, -i sin g/2], [-i sin g/2, cos g/2]] of one qubit
    satellite_kick: np.ndarray
    # K_c^T, the central kick in the x basis, transposed: it multiplies the
    # state matrix from the right
    central_kick: np.ndarray


def _eigenbases(shape: SystemShape, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """(satellite, central) eigenbases of S^axis (columns by descending
    magnetic number): of the collective spin, or on the 2^n layout of the
    one satellite qubit that every qubit is rotated by."""
    sat = shape.n_sat if isinstance(shape, CollectiveShape) else 1
    return axis_eigenbasis(sat, axis), axis_eigenbasis(shape.two_s, axis)


def _x_basis_kick(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """exp(-i g S^z) of a spin in its x eigenbasis v (columns by descending
    m): V^H diag(e^{-i g m}) V, one matrix per entry of g."""
    m = (len(v) - 1) / 2.0 - np.arange(len(v))
    phases = np.exp(-1j * np.multiply.outer(g, m))
    return (v.conj().T * phases[..., None, :]) @ v


def _popcounts(n_bits: int) -> np.ndarray:
    k = np.arange(1 << n_bits, dtype=np.int64)
    pc = np.zeros_like(k)
    for b in range(n_bits):
        pc += (k >> b) & 1
    return pc


def magnetic_numbers(shape: SystemShape) -> tuple[np.ndarray, np.ndarray]:
    """(total satellite S^z per satellite index, central S^z per level,
    descending).

    The same numbers are the S^a eigenvalues in the joint eigenbasis of
    any axis a (to_axis_basis).
    """
    n = shape.n_sat
    down = np.arange(n + 1) if isinstance(shape, CollectiveShape) else _popcounts(n)
    return n / 2.0 - down, shape.s - np.arange(shape.central_dim)


def precompute(shape: SystemShape,
               params: DriveParams | Sequence[DriveParams]) -> StepTables:
    """Build the interaction diagonal and the kick factors for the shape.

    With a sequence of drive points every table is stacked, one row per
    point, for a state stack with one row per point.
    """
    m_sat, m_c = magnetic_numbers(shape)
    single = isinstance(params, DriveParams)
    points = [params] if single else params
    rows = () if single else (len(points),)
    lam, g_s, g_c = (a.reshape(rows) for a in
                     np.array([[p.lam, p.g_s, p.g_c] for p in points]).T)
    # one (point, satellite index, central level) entry per phase
    interaction = np.exp(1j * lam[..., None, None] * m_sat[:, None] * m_c)
    v_s, v_c = _eigenbases(shape, "x")
    return StepTables(
        shape=shape,
        interaction_phases=interaction.reshape(rows + (-1,)),
        satellite_kick=_x_basis_kick(v_s, g_s),
        central_kick=np.ascontiguousarray(_x_basis_kick(v_c, g_c).swapaxes(-1, -2)),
    )


def _rotate_all_satellites(mat: np.ndarray, shape: SystemShape,
                           u: np.ndarray) -> None:
    """Apply the 2x2 matrix u to every satellite qubit of mat, in place.

    mat is C-contiguous as (..., satellite index, inner): every entry of
    the last axis (a central level, or a row and a central level) moves
    with its satellite index. u may carry leading axes of its own, one
    matrix per row of a state stack; they match mat's first axes.
    """
    rows = mat.shape[:u.ndim - 2]
    (a, b), (c, e) = np.moveaxis(u, (-2, -1), (0, 1))[..., None, None]
    inner = mat.shape[-1]
    for _ in range(shape.n_sat):
        v = mat.reshape(rows + (-1, 2, inner))
        top, bottom = v[..., 0, :], v[..., 1, :]
        new_top = a * top + b * bottom
        bottom[...] = c * top + e * bottom
        top[...] = new_top
        inner *= 2


def to_axis_basis(mat: np.ndarray, shape: SystemShape, axis: str) -> np.ndarray:
    """Rotate states from the joint z basis into the joint eigenbasis of
    S^axis, where magnetic_numbers are the S^axis eigenvalues.

    mat holds states as (..., satellite index, central level), any leading
    axes, C-contiguous; it is overwritten on the 2^n layout. Returns the
    rotated states in the same shape.
    """
    v_s, v_c = _eigenbases(shape, axis)
    if isinstance(shape, CollectiveShape):
        mat = v_s.conj().T @ mat
    else:
        _rotate_all_satellites(mat, shape, v_s.conj().T)
    return mat @ v_c.conj()


def to_x_basis(mat: np.ndarray, shape: SystemShape) -> np.ndarray:
    """to_axis_basis on the x axis, the basis evolve drives in."""
    return to_axis_basis(mat, shape, "x")


def from_x_basis(mat: np.ndarray, shape: SystemShape) -> np.ndarray:
    """Inverse of to_x_basis, with the same layout and overwrite rules."""
    v_s, v_c = _eigenbases(shape, "x")
    mat = mat @ v_c.T
    if isinstance(shape, CollectiveShape):
        return v_s @ mat
    _rotate_all_satellites(mat, shape, v_s)
    return mat


def evolve(state: PureState, tables: StepTables, n_periods: int, recorder=None) -> list:
    """Apply (kick; interaction) n_periods times, recording every period.

    state may be a stack of states, one row per drive point of stacked
    tables (see precompute). It is rotated into the joint x basis once on
    entry, driven there (kick factors and the interaction diagonal), and
    rotated back into the z basis once on exit; an evolve call of zero
    periods leaves it untouched. recorder, if given, is called once per
    block of consecutive periods as recorder(states, first): states is a
    PureState in the joint x basis whose amplitudes have one more leading
    axis than state's, one entry per period of the block, and are the
    recorder's to keep; first is the number of the block's first period
    (1..n_periods). It returns one result per period, and the results of
    all blocks are returned as one list. A block holds at most
    _BLOCK_AMPLITUDES (4096) amplitudes, or one period when a single state
    is larger, so recording holds at most that much beyond the state.
    """
    global _op_count
    if n_periods < 0:
        raise ShapeError(f"n_periods must be >= 0, got {n_periods}")
    if state.shape != tables.shape:
        raise ShapeError(f"state shape {state.shape} != tables shape {tables.shape}")
    if n_periods == 0:
        return []
    shape, flat = state.shape, state.amplitudes.shape
    d = shape.central_dim
    x = to_x_basis(state.amplitudes.reshape(flat[:-1] + (-1, d)), shape)
    k_s, k_c = tables.satellite_kick, tables.central_kick
    phases = tables.interaction_phases.reshape(x.shape)
    qubits = not isinstance(shape, CollectiveShape)

    def period(x):
        if qubits:
            _rotate_all_satellites(x, shape, k_s)
            x = x @ k_c
        else:
            x = k_s @ x @ k_c
        x *= phases
        return x

    records = []
    if recorder is None:
        for _ in range(n_periods):
            x = period(x)
    else:
        block = max(1, _BLOCK_AMPLITUDES // state.amplitudes.size)
        for first in range(1, n_periods + 1, block):
            states = np.empty((min(block, n_periods + 1 - first),) + x.shape,
                              dtype=x.dtype)
            for row in states:
                x = period(x)
                row[...] = x
            records.extend(recorder(
                PureState(shape, states.reshape((len(states),) + flat)), first))
    state.amplitudes = from_x_basis(x, shape).reshape(flat)
    sat_ops = 2 * shape.n_sat if qubits else shape.n_sat + 1
    _op_count += n_periods * x.size * (sat_ops + d + 1)
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
