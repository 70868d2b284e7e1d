"""Per-period measurements: magnetizations, entropy, fidelity.

Magnetizations default to the x axis: the initial state is x-polarized and
the period-doubled dynamics flips between +-x products, so <S^x> is the
signal with the +-1/2 (satellite) and +-s (central) ranges.

In the joint eigenbasis of an axis (floquet.to_axis_basis) a magnetization
is the populations |X|^2 weighted by floquet.magnetic_numbers.
floquet.evolve hands its recorder states in the joint x basis, so the
per-period columns read them there: the x magnetizations, the entropy of
the central density (the basis change is local, so it keeps the spectrum)
and the fidelity to the x-polarized start, which in that basis is the first
basis state.

A TrajectoryRecord is a named tuple whose fields are the columns of the
evolve CSV, so each record is its own row.
"""

from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .hilbert import PureState, reduced_central_density, _hermitian_entropy
from .floquet import magnetic_numbers, to_axis_basis


class TrajectoryRecord(NamedTuple):
    n: int
    m_sat_x: float        # satellite-averaged <S^x>, in [-1/2, 1/2]
    m_c_x: float          # central <S_c^x>, in [-s, s]
    entropy: float        # central-satellite entanglement entropy, nats
    fidelity_initial: float


def _populations(amps: np.ndarray) -> np.ndarray:
    """|amps|^2 elementwise, by the same multiplications on every layout
    of the array, so a value does not depend on its neighbours."""
    return amps.real ** 2 + amps.imag ** 2


def _magnetizations(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """(satellite-averaged, central) <S^a> per row of states held in the
    joint eigenbasis of S^a. Each row is an elementwise product and a sum
    over the last axis, so it does not depend on the other rows."""
    m_sat, m_c = magnetic_numbers(state.shape)
    p = _populations(state.amplitudes)
    return ((p * np.repeat(m_sat, m_c.size)).sum(axis=-1) / state.shape.n_sat,
            (p * np.tile(m_c, m_sat.size)).sum(axis=-1))


def magnetization(state: PureState, target: str,
                  axis: str = "x") -> float | np.ndarray:
    """<S^axis> per satellite spin, or of the central spin (per row of a
    state stack in the z basis)."""
    if target not in ("satellites", "central"):
        raise ShapeError(f"target must be 'satellites' or 'central', got {target!r}")
    shape, amps = state.shape, state.amplitudes
    mat = amps.reshape(amps.shape[:-1] + (-1, shape.central_dim))
    rotated = PureState(shape, to_axis_basis(mat, shape, axis).reshape(amps.shape))
    m_sat, m_c = _magnetizations(rotated)
    return m_sat if target == "satellites" else m_c


def period_observables(state: PureState):
    """(satellite <S^x>, central <S^x>, entanglement entropy), one value per
    row of a stack of states in the joint x basis; the phase map's
    per-period columns. The reduced density is Hermitian by construction,
    so the entropy skips von_neumann_entropy's check."""
    return (*_magnetizations(state),
            _hermitian_entropy(reduced_central_density(state)))


def initial_fidelity(states: PureState) -> np.ndarray:
    """Fidelity to the x-polarized start per row of states in the joint x
    basis: |X_00|^2, the population of the first basis state."""
    return _populations(states.amplitudes[..., 0])


def trajectory_records(states: PureState, first: int) -> list[TrajectoryRecord]:
    """Recorder for floquet.evolve from the x-polarized state: a block of
    consecutive periods in the joint x basis, stacked along the leading
    axis, first the number of the first one; one TrajectoryRecord per
    period."""
    columns = [c.tolist() for c in period_observables(states)]
    fidelity = initial_fidelity(states)
    return [TrajectoryRecord(first + k, *values)
            for k, values in enumerate(zip(*columns, fidelity.tolist()))]


def magnetization_records(states: PureState, first: int) -> list[tuple]:
    """Recorder for floquet.evolve that keeps only the x magnetizations:
    one (satellite <S^x>, central <S^x>) pair per period of a block in the
    joint x basis, the values trajectory_records gives them."""
    return list(zip(*(c.tolist() for c in _magnetizations(states))))
