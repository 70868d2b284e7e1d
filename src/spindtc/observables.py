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

On the lines lambda = 0 and 2pi the columns have a closed form
(product_series), which the phase map and evolve write there instead of
driving the engine. At lambda = 0 the drive is the kick alone. At
lambda = 2pi, e^{i 2pi J^x S^x} is a product of local pi turns about x: of
the satellites when 2s is odd, of the central spin when n_sat is odd (1
when neither turns, -i times both turns when both do). So the x-polarized
start stays a product of coherent states in the xy plane, and each
subsystem is the start turned about z by its x angle phi: n g after n
periods, or, for a turned subsystem, g at odd n and 0 at even n. The
entropy is 0, the x magnetizations are 1/2 cos phi_J and s cos phi_c, and
the fidelity to the start is cos^{2 n_sat}(phi_J/2) cos^{4s}(phi_c/2).
Since e^{i 4pi J^x S^x} is +-1, a lambda has the columns of lambda mod
4pi, so every multiple of 2pi, such as 4pi, 6pi or -2pi, has the closed
form of the line it is on mod 4pi.
floquet.evolve, which knows nothing of this, is the path the closed form is
checked against.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .hilbert import (CollectiveShape, PureState, reduced_central_density,
                      _hermitian_entropy)
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


def _records(columns, first: int) -> list[TrajectoryRecord]:
    """One TrajectoryRecord per entry of the four columns, numbered from
    first."""
    return [TrajectoryRecord(n, *values) for n, values in
            enumerate(zip(*(c.tolist() for c in columns)), start=first)]


def trajectory_records(states: PureState, first: int) -> list[TrajectoryRecord]:
    """Recorder for floquet.evolve from the x-polarized state: a block of
    consecutive periods in the joint x basis, stacked along the leading
    axis, first the number of the first one; one TrajectoryRecord per
    period."""
    return _records((*period_observables(states), initial_fidelity(states)),
                    first)


def is_product_line(lam) -> bool | np.ndarray:
    """Whether lambda mod 4pi is exactly 0 or 2pi, where product_series
    holds (elementwise over an array). In floats 4pi, 8pi and -4pi are 0
    mod 4pi, 6pi and -2pi are 2pi, and a lambda in [0, 4pi) is itself."""
    lam = np.mod(lam, 4 * math.pi)
    return (lam == 0.0) | (lam == 2 * math.pi)


def product_series(shape: CollectiveShape, lam, g, periods: int):
    """(m_sat_x, m_c_x, entropy, fidelity) of the x-polarized start at
    periods 0..periods of the drive at a lambda that is 0 or 2pi mod 4pi
    (module docstring, is_product_line), each an array whose leading axis
    is the period number and whose other axes are those of lam and g
    broadcast together: one column per drive point. The entropy is exactly 0, and every value lies in its
    range exactly: |m_sat_x| <= 1/2, |m_c_x| <= s, the fidelity in [0, 1].
    Every entry is computed by the same operations whatever the other
    points are."""
    if periods < 0:
        raise ShapeError(f"n_periods must be >= 0, got {periods}")
    lam, g = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(g, dtype=float))
    if not is_product_line(lam).all():
        raise ShapeError(f"the closed form holds at lambda = 0 and 2pi, "
                         f"not at {float(lam[~is_product_line(lam)][0])!r}")
    n = np.arange(periods + 1).reshape((-1,) + (1,) * g.ndim)
    turned = np.mod(lam, 4 * math.pi) == 2 * math.pi
    phi_j = np.where(turned & (shape.two_s % 2 == 1), n % 2, n) * g
    phi_c = np.where(turned & (shape.n_sat % 2 == 1), n % 2, n) * g
    return (0.5 * np.cos(phi_j), shape.s * np.cos(phi_c),
            np.zeros(phi_j.shape),
            np.cos(phi_j / 2) ** (2 * shape.n_sat)
            * np.cos(phi_c / 2) ** (2 * shape.two_s))


def product_records(shape: CollectiveShape, lam: float, g: float,
                    periods: int) -> list[TrajectoryRecord]:
    """The TrajectoryRecords of periods 1..periods at a lambda that is 0 or
    2pi mod 4pi, from product_series: what floquet.evolve with
    trajectory_records gives there, up to its rounding."""
    return _records([c[1:] for c in product_series(shape, lam, g, periods)],
                    1)


def magnetization_records(states: PureState, first: int) -> list[tuple]:
    """Recorder for floquet.evolve that keeps only the x magnetizations:
    one (satellite <S^x>, central <S^x>) pair per period of a block in the
    joint x basis, the values trajectory_records gives them."""
    return list(zip(*(c.tolist() for c in _magnetizations(states))))
