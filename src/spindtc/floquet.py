"""Matrix-free Floquet drive of the kick and interaction unitaries.

One drive period is: kick U_d = exp(-i g_c S_c^z) prod_i exp(-i g_s S_i^z),
then interaction U_0 = exp(i lambda sum_i S_i^x S_c^x). The interaction is
diagonal in the joint x basis (the collective satellite spin and the
central spin rotated into their x eigenbases), and evolve drives the state
there: with X the state matrix (hilbert), one period is
X <- (K_s X K_c^T) * P, P the interaction diagonal and
K = V^H diag(e^{-i g m}) V the kick of each spin in its x basis. It changes
basis once on entry and once on exit, and hands its observer the states of
every period in the x basis, where each x magnetization is a population sum
weighted by spin_algebra.magnetic_numbers; evolve returns what the observer
reads as per-period columns. period_states yields the same x-basis states
one period at a time, without end, for a caller that decides after each
period whether to go on (diagnostics.first_revival), and evolve fills its
blocks from it, so every period runs through the one generator behind
period_states. Period cost is O(D * (n_sat + d)) instead of the dense
O(D^2). Each row keeps its own
dense kick factors, one matrix product per row, rather than the Fisher
walk's real rotations that one product applies to a whole stack
(metrology): a product over many rows rounds a row differently from the
same row alone (about half the rows of a stack, measured), and the sweep
promises that a resumed scan equals a fresh one bitwise, whichever rows
share a stack.

The satellite factor is the Dicke ladder of J = n_sat/2
(hilbert.CollectiveShape): its magnetic numbers are the J^z eigenvalues, its
z<->x rotation and K_s are dense (n_sat+1)^2 matrices, the kicked-top
reduction of Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987), applied to two
coupled spins. The x eigenbases of both spins are spin_algebra.x_eigenbasis,
real.

A drive point is its three angles (lam, g_s, g_c), with no type of its
own: precompute takes them as arrays that broadcast together, 0-d for one
point's tables and with leading axes for stacked tables, and rejects a
non-finite angle (finite_angles) before it builds anything.

The module keeps no state between calls: at a fixed shape, the work of an
evolve call is its rows of state times its periods.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .hilbert import CollectiveShape
from .spin_algebra import magnetic_numbers, x_eigenbasis

# amplitudes of one block of observed periods in evolve. Per-period Python
# work in the observer is paid once per block, and beyond a few thousand
# amplitudes a longer block only holds more memory.
_BLOCK_AMPLITUDES = 1 << 12
# complex entries of one batched state stack and its per-row tables, shared
# by the sweep's grid stacks and metrology's Fisher walks. Per-period Python
# overhead is paid once per stack, so small stacks are slow, while beyond a
# few hundred rows the arithmetic dominates and a larger stack only holds
# more memory.
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class StepTables:
    """One drive period in the joint x basis. Stacked tables (see
    precompute) carry the drive points' leading axes on every entry."""

    shape: CollectiveShape
    # diagonal of U_0 in the joint x basis, one phase per entry of the
    # state matrix
    interaction_phases: np.ndarray
    # K_s, the (n_sat+1)^2 satellite kick in the x basis: it multiplies the
    # state matrix from the left
    satellite_kick: np.ndarray
    # K_c^T, the central kick in the x basis, transposed: it multiplies the
    # state matrix from the right
    central_kick: np.ndarray


def _eigenbases(shape: CollectiveShape) -> tuple[np.ndarray, np.ndarray]:
    """(satellite, central) eigenbases of S^x (columns by descending
    magnetic number)."""
    return x_eigenbasis(shape.n_sat), x_eigenbasis(shape.two_s)


def _x_basis_kick(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """exp(-i g S^z) of a spin in its x eigenbasis v (columns by descending
    m): V^H diag(e^{-i g m}) V, one matrix per entry of g."""
    phases = np.exp(-1j * np.multiply.outer(g, magnetic_numbers(len(v))))
    return (v.conj().T * phases[..., None, :]) @ v


def check_periods(n_periods: int) -> None:
    """A period count must be >= 0."""
    if n_periods < 0:
        raise ShapeError(f"n_periods must be >= 0, got {n_periods}")


def finite_angles(*angles) -> list[np.ndarray]:
    """The drive angles as float arrays broadcast together. Raises
    ShapeError unless every entry is finite."""
    angles = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in angles))
    for a in angles:
        bad = a[~np.isfinite(a)]
        if bad.size:
            raise ShapeError(f"drive angles must be finite, got {float(bad[0])}")
    return angles


def precompute(shape: CollectiveShape, lam, g_s, g_c) -> StepTables:
    """Build the interaction diagonal and the kick factors for the shape at
    the interaction angle lam and the kick angles g_s (satellites) and g_c
    (central spin), which broadcast together (finite_angles).

    0-d angles give one drive point's tables. Arrays give stacked tables,
    one row per drive point, for a state stack with one row per point;
    each row is bitwise the tables of its point alone.
    """
    lam, g_s, g_c = finite_angles(lam, g_s, g_c)
    m_sat, m_c = map(magnetic_numbers, shape.dims)
    v_s, v_c = _eigenbases(shape)
    return StepTables(
        shape=shape,
        interaction_phases=np.exp(1j * lam[..., None, None] * m_sat[:, None] * m_c),
        satellite_kick=_x_basis_kick(v_s, g_s),
        central_kick=np.ascontiguousarray(_x_basis_kick(v_c, g_c).swapaxes(-1, -2)),
    )


def to_x_basis(mat: np.ndarray, shape: CollectiveShape) -> np.ndarray:
    """Rotate states from the joint z basis into the joint x basis, the
    basis evolve drives in, where magnetic_numbers are the S^x eigenvalues.

    mat holds state matrices, any leading axes. Returns the rotated states
    in the same shape.
    """
    v_s, v_c = _eigenbases(shape)
    return v_s.conj().T @ mat @ v_c.conj()


def from_x_basis(mat: np.ndarray, shape: CollectiveShape) -> np.ndarray:
    """Inverse of to_x_basis, with the same layout."""
    v_s, v_c = _eigenbases(shape)
    return v_s @ (mat @ v_c.T)


def period_states(state: np.ndarray, tables: StepTables) -> Iterator[np.ndarray]:
    """Yield the states of periods 1, 2, ... of the drive from the state
    matrices state (z basis, any leading axes), without end: each a new
    array of x-basis state matrices of state's shape, the caller's to keep.
    state is checked and rotated into the joint x basis here, at the call,
    and is not changed: a state whose last two axes are not
    tables.shape.dims, or whose leading axes the tables' drive points do
    not broadcast into, raises ShapeError before any period. A caller stops
    by asking for no more periods."""
    if state.shape[-2:] != tables.shape.dims:
        raise ShapeError(f"state matrices of shape {state.shape[-2:]} != "
                         f"{tables.shape.dims} of {tables.shape}")
    rows, points = state.shape[:-2], tables.interaction_phases.shape[:-2]
    if len(points) > len(rows) or any(
            p not in (1, r) for p, r in zip(points[::-1], rows[::-1])):
        raise ShapeError(f"drive points of shape {points} do not broadcast "
                         f"into state matrices of leading shape {rows}")
    return _drive(to_x_basis(state, tables.shape), tables)


def _drive(x: np.ndarray, tables: StepTables) -> Iterator[np.ndarray]:
    """The x-basis states of periods 1, 2, ... without end, from the
    x-basis state x: one period is X -> (K_s X K_c^T) * P. Every period of
    the module runs here."""
    k_s, k_c = tables.satellite_kick, tables.central_kick
    phases = tables.interaction_phases
    while True:
        x = k_s @ x @ k_c
        x *= phases
        yield x


def evolve(state: np.ndarray, tables: StepTables, n_periods: int,
           observe=None) -> tuple:
    """Apply (kick; interaction) n_periods times to the z-basis state
    matrices state, in place, observing every period.

    state may be a stack of state matrices, one row per drive point of
    stacked tables (see precompute); it must be a complex array, which can
    hold the final state, with last two axes tables.shape.dims, or evolve
    raises ShapeError before any period. Its periods are those
    period_states yields: it is rotated into the joint x basis once on
    entry, driven there (kick factors and the interaction diagonal), and
    the final state, rotated
    back into the z basis, is written into state on exit; an evolve call
    of zero periods leaves it untouched. observe, if given, is called once
    per block of consecutive periods as observe(states): states is an
    array of x-basis state matrices with one more leading axis than
    state, one entry per period of the block, and is observe's to keep.
    It returns a tuple of arrays whose leading axis is the block's periods,
    and evolve returns each of them joined over the blocks, so that its
    leading axis runs over periods 1..n_periods. Without observe, or at
    zero periods, evolve returns (). A block holds at most
    _BLOCK_AMPLITUDES (4096) amplitudes, or one period when a single state
    is larger, so a call holds at most that much beyond the state.
    """
    check_periods(n_periods)
    if not np.iscomplexobj(state):
        raise ShapeError(f"evolve writes a complex state into state, "
                         f"which holds {state.dtype}")
    periods = period_states(state, tables)
    if n_periods == 0:
        return ()
    blocks = []
    block = max(1, _BLOCK_AMPLITUDES // state.size)
    for done in range(0, n_periods, block):
        states = np.empty((min(block, n_periods - done),) + state.shape,
                          dtype=complex)
        # the block's rows first, so that no period is drawn beyond them
        for row, x in zip(states, periods):
            row[...] = x
        if observe is not None:
            blocks.append(observe(states))
    state[...] = from_x_basis(x, tables.shape)
    return tuple(map(np.concatenate, zip(*blocks)))
