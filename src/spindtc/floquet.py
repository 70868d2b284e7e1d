"""Matrix-free application of the kick and interaction unitaries.

One drive period is: kick U_d = exp(-i g_c S_c^z) prod_i exp(-i g_s S_i^z),
then interaction U_0 = exp(i lambda sum_i S_i^x S_c^x). The kick is diagonal
in the joint z basis, the interaction in the joint x basis (every satellite
qubit and the central spin rotated into their x eigenbases). evolve keeps
the state in the x basis: with X the state as a (satellite index, central
level) matrix, one period is X <- (K_s X K_c^T) * P, P the interaction
diagonal and K = V^H diag(e^{-i g m}) V the kick of each spin in its x
basis. It changes basis once on entry, once per block of recorded periods
(to hand the recorder z-basis states) and once on exit. Period cost is
O(D * (n_sat + d)) instead of the dense O(D^2).

On a CollectiveShape the satellite factor is the Dicke ladder of
J = n_sat/2: its magnetic numbers are the J^z eigenvalues, its z<->x
rotation and K_s are dense (n_sat+1)^2 matrices, the kicked-top reduction of
Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987), applied to two coupled spins.
On the 2^n layout (the verification path) K_s is one 2x2 rotation applied to
every satellite qubit, and a period costs O(D * (2 n_sat + d)).
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError, CapacityError
from .hilbert import SystemShape, CollectiveShape, PureState
from .spin_algebra import spin_matrices, axis_eigenbasis

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
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
    """Precomputed diagonals, basis rotations and kick factors for one drive
    period. Stacked tables (see precompute) carry a leading row axis on
    every per-point entry: the phase tables, the kick angles and the kick
    factors."""

    shape: SystemShape
    # diagonal of U_d in the joint z basis: apply_kick and metrology's
    # tangent loop; evolve kicks with satellite_kick and central_kick
    kick_phases: np.ndarray
    # diagonal of U_0 in the joint x basis, the basis evolve drives in
    interaction_phases: np.ndarray
    central_x_rotation: np.ndarray   # columns: x eigenbasis of the central spin
    kick_angles: np.ndarray          # (g_s, g_c), the kick factors' angles
    # columns: x eigenbasis of the collective satellite spin; None on the
    # 2^n layout, which rotates every satellite qubit instead
    satellite_x_rotation: np.ndarray | None = None

    @cached_property
    def satellite_kick(self) -> np.ndarray:
        """K_s, the satellite kick in the x basis: it multiplies the state
        matrix from the left. (n_sat+1)^2 on the collective layout; on the
        2^n layout the 2x2 [[cos g/2, -i sin g/2], [-i sin g/2, cos g/2]]
        of one satellite qubit. Built on first use, so paths that never
        drive in the x basis (metrology) never build it."""
        if self.satellite_x_rotation is None:     # one satellite qubit
            v, m = _HADAMARD, np.array([0.5, -0.5])
        else:
            v, m = self.satellite_x_rotation, magnetic_numbers(self.shape)[0]
        return _x_basis_kick(v, self.kick_angles[..., 0], m)

    @cached_property
    def central_kick(self) -> np.ndarray:
        """K_c^T, the central kick in the x basis, transposed: it multiplies
        the state matrix from the right."""
        kick = _x_basis_kick(self.central_x_rotation, self.kick_angles[..., 1],
                             magnetic_numbers(self.shape)[1])
        return np.ascontiguousarray(kick.swapaxes(-1, -2))


def _x_basis_kick(v: np.ndarray, g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """V^H diag(e^{-i g m}) V, one matrix per entry of g."""
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

    The same numbers are the S^x eigenvalues in the joint x basis.
    """
    n = shape.n_sat
    down = np.arange(n + 1) if isinstance(shape, CollectiveShape) else _popcounts(n)
    return n / 2.0 - down, shape.s - np.arange(shape.central_dim)


def precompute(shape: SystemShape,
               params: DriveParams | Sequence[DriveParams]) -> StepTables:
    """Build the phase tables and basis rotations for the shape.

    With a sequence of drive points the phase tables and kick factors are
    stacked, one row per point, for a state stack with one row per point.
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
        kick_angles=np.stack([g_s, g_c], axis=-1).reshape(rows + (2,)),
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


def to_x_basis(mat: np.ndarray, tables: StepTables) -> np.ndarray:
    """Rotate states from the joint z basis to the joint x basis.

    mat holds states as (..., satellite index, central level), any leading
    axes, C-contiguous; it is overwritten on the 2^n layout. Returns the
    rotated states in the same shape.
    """
    vs = tables.satellite_x_rotation
    if vs is None:
        _rotate_all_satellites(mat, tables.shape, _HADAMARD)   # every qubit
    else:
        mat = vs.conj().T @ mat                                # the collective spin
    return mat @ tables.central_x_rotation.conj()


def from_x_basis(mat: np.ndarray, tables: StepTables) -> np.ndarray:
    """Inverse of to_x_basis, with the same layout and overwrite rules."""
    mat = mat @ tables.central_x_rotation.T
    vs = tables.satellite_x_rotation
    if vs is None:
        _rotate_all_satellites(mat, tables.shape, _HADAMARD)
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
    """Apply (kick; interaction) n_periods times, recording every period.

    state may be a stack of states, one row per drive point of stacked
    tables (see precompute). It is rotated into the joint x basis once on
    entry, driven there (kick factors and the interaction diagonal), and
    rotated back into the z basis once on exit; an evolve call of zero
    periods leaves it untouched. recorder, if given, is called once per
    block of consecutive periods as recorder(states, first): states is a
    PureState in the z basis (one basis change per block) whose amplitudes
    have one more leading axis than state's, one entry per period of the
    block, and first is the number of the block's first period
    (1..n_periods). It returns one result per period, and the results of
    all blocks are returned as one list. A block holds at most
    _BLOCK_AMPLITUDES (4096) amplitudes, or one period when a single state
    is larger, so recording holds at most that much beyond the state.
    """
    global _op_count
    if n_periods < 0:
        raise ShapeError(f"n_periods must be >= 0, got {n_periods}")
    _check(state, tables)
    if n_periods == 0:
        return []
    shape, flat = state.shape, state.amplitudes.shape
    d = shape.central_dim
    x = to_x_basis(state.amplitudes.reshape(flat[:-1] + (-1, d)), tables)
    k_s, k_c = tables.satellite_kick, tables.central_kick
    phases = tables.interaction_phases.reshape(x.shape)
    qubits = tables.satellite_x_rotation is None

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
        buffer = np.empty((block,) + x.shape, dtype=x.dtype)
        for first in range(1, n_periods + 1, block):
            count = min(block, n_periods + 1 - first)
            states = buffer[:count]
            for row in states:
                x = period(x)
                row[...] = x
            # one stack of count * rows states: matmul loops faster over one
            # leading axis than over two
            states = from_x_basis(states.reshape((-1,) + x.shape[-2:]), tables)
            states = states.reshape((count,) + flat)
            records.extend(recorder(PureState(shape, states), first))
    state.amplitudes = from_x_basis(x, tables).reshape(flat)
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
