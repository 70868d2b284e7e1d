"""Per-period measurements: magnetizations, entropy, fidelity.

Magnetizations default to the x axis: the initial state is x-polarized and
the period-doubled dynamics flips between +-x products, so <S^x> is the
signal with the +-1/2 (satellite) and +-s (central) ranges.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .hilbert import (CollectiveShape, DensityMatrix, PureState,
                      reduced_central_density, _hermitian_entropy)
from .spin_algebra import spin_matrices


@dataclass(frozen=True)
class TrajectoryRecord:
    n: int
    m_sat_x: float        # satellite-averaged <S^x>, in [-1/2, 1/2]
    m_c_x: float          # central <S_c^x>, in [-s, s]
    entropy: float        # central-satellite entanglement entropy, nats
    fidelity_initial: float


@lru_cache(maxsize=32)
def _spin_component(two_s: int, axis: str) -> np.ndarray:
    """S^axis for spin two_s/2, built once and shared read-only."""
    ops = spin_matrices(two_s)
    try:
        op = {"x": ops.sx, "y": ops.sy, "z": ops.sz}[axis]
    except KeyError:
        raise ShapeError(f"axis must be x, y or z, got {axis!r}") from None
    op.flags.writeable = False
    return op


def _expectation(rows: tuple, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Re <bra|ket> for each state of a stack with leading axes rows."""
    return (bra.conj() * ket).real.reshape(rows + (-1,)).sum(axis=-1)


def _satellite_magnetization(state: PureState, axis: str) -> np.ndarray:
    shape = state.shape
    amps = state.amplitudes
    rows = amps.shape[:-1]
    if isinstance(shape, CollectiveShape):
        mat = amps.reshape(rows + (-1, shape.central_dim))
        op = _spin_component(shape.n_sat, axis)
        return _expectation(rows, mat, op @ mat) / shape.n_sat
    # satellite qubit k is bit k of the satellite index (bit = 1 means z-down)
    op = _spin_component(1, axis)
    total = 0.0
    inner = shape.central_dim
    for _ in range(shape.n_sat):
        v = amps.reshape(rows + (-1, 2, inner))
        total += _expectation(rows, v, op @ v)
        inner *= 2
    return total / shape.n_sat


def _central_magnetization(rho: DensityMatrix, two_s: int, axis: str) -> np.ndarray:
    """Tr(rho S^axis) for each central density of a stack: the sum of
    conj(S)_ab rho_ab, S being Hermitian."""
    return _expectation(rho.entries.shape[:-2], _spin_component(two_s, axis),
                        rho.entries)


def magnetization(state: PureState, target: str,
                  axis: str = "x") -> float | np.ndarray:
    """<S^axis> per satellite spin, or of the central spin (per row of a
    state stack)."""
    if target == "satellites":
        return _satellite_magnetization(state, axis)
    if target == "central":
        return _central_magnetization(reduced_central_density(state),
                                      state.shape.two_s, axis)
    raise ShapeError(f"target must be 'satellites' or 'central', got {target!r}")


def period_observables(state: PureState, axis: str = "x"):
    """(satellite <S^axis>, central <S^axis>, entanglement entropy), one
    value per row of a state stack; the phase map's per-period columns.
    The reduced density is Hermitian by construction, so the entropy skips
    von_neumann_entropy's check."""
    rho = reduced_central_density(state)
    return (magnetization(state, "satellites", axis),
            _central_magnetization(rho, state.shape.two_s, axis),
            _hermitian_entropy(rho.entries))


def make_recorder(reference: PureState, axis: str = "x"):
    """Recorder callable for floquet.evolve, closed over the reference state.

    It takes a block of consecutive periods, states stacked along the
    leading axis and first the number of the first one, and returns one
    TrajectoryRecord per period.
    """
    ref = reference.amplitudes

    def _rec(states: PureState, first: int) -> list[TrajectoryRecord]:
        columns = (c.tolist() for c in period_observables(states, axis))
        # np.vdot per row, not one matmul: the same sum as hilbert.fidelity
        return [TrajectoryRecord(n=first + k, m_sat_x=m_sat, m_c_x=m_c,
                                 entropy=entropy,
                                 fidelity_initial=abs(complex(np.vdot(row, ref))) ** 2)
                for k, (row, m_sat, m_c, entropy)
                in enumerate(zip(states.amplitudes, *columns))]
    return _rec


def record(state: PureState, n: int, reference: PureState,
           axis: str = "x") -> TrajectoryRecord:
    """The per-period observables of one state as one row: make_recorder's
    recorder on a block of one."""
    block = PureState(state.shape, state.amplitudes[None])
    return make_recorder(reference, axis)(block, n)[0]
