"""Per-period measurements: magnetizations, entropy, fidelity.

Magnetizations default to the x axis: the initial state is x-polarized and
the period-doubled dynamics flips between +-x products, so <S^x> is the
signal with the +-1/2 (satellite) and +-s (central) ranges.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .hilbert import (CollectiveShape, PureState, fidelity,
                      reduced_central_density, von_neumann_entropy)
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


def _satellite_magnetization(state: PureState, axis: str) -> float:
    shape = state.shape
    amps = state.amplitudes
    d = shape.central_dim
    if isinstance(shape, CollectiveShape):
        mat = amps.reshape(-1, d)
        op = _spin_component(shape.n_sat, axis)
        return float(np.vdot(mat, op @ mat).real) / shape.n_sat
    total = 0.0
    if axis == "z":
        # diagonal: bit = 1 means z-down
        probs = np.abs(amps) ** 2
        inner = d
        for _ in range(shape.n_sat):
            v = probs.reshape(-1, 2, inner)
            total += 0.5 * float(v[:, 0, :].sum() - v[:, 1, :].sum())
            inner *= 2
        return total / shape.n_sat
    inner = d
    for _ in range(shape.n_sat):
        v = amps.reshape(-1, 2, inner)
        cross = np.sum(v[:, 0, :].conj() * v[:, 1, :])
        if axis == "x":
            total += float(cross.real)
        elif axis == "y":
            total += float(cross.imag)
        else:
            raise ShapeError(f"axis must be x, y or z, got {axis!r}")
        inner *= 2
    return total / shape.n_sat


def _central_magnetization(state: PureState, axis: str) -> float:
    shape = state.shape
    op = _spin_component(shape.two_s, axis)
    mat = state.amplitudes.reshape(-1, shape.central_dim)
    return float(np.einsum("ka,ab,kb->", mat.conj(), op, mat).real)


def magnetization(state: PureState, target: str, axis: str = "x") -> float:
    """<S^axis> per satellite spin, or of the central spin."""
    if target == "satellites":
        return _satellite_magnetization(state, axis)
    if target == "central":
        return _central_magnetization(state, axis)
    raise ShapeError(f"target must be 'satellites' or 'central', got {target!r}")


def record(state: PureState, n: int, reference: PureState,
           axis: str = "x") -> TrajectoryRecord:
    """Bundle the per-period observables into one row."""
    return TrajectoryRecord(
        n=n,
        m_sat_x=magnetization(state, "satellites", axis),
        m_c_x=magnetization(state, "central", axis),
        entropy=von_neumann_entropy(reduced_central_density(state)),
        fidelity_initial=fidelity(state, reference),
    )


def make_recorder(reference: PureState, axis: str = "x"):
    """Recorder callable for floquet.evolve, closed over the reference state."""
    def _rec(state: PureState, n: int) -> TrajectoryRecord:
        return record(state, n, reference, axis)
    return _rec
