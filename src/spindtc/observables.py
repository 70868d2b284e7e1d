"""Per-period measurements: magnetizations, entropy, fidelity.

The magnetizations are along x: the initial state is x-polarized and the
period-doubled dynamics flips between +-x products, so <S^x> is the
signal with the +-1/2 (satellite) and +-s (central) ranges.

In the joint x basis (floquet.to_x_basis) an x magnetization is the
populations |X|^2 weighted by floquet.magnetic_numbers.
floquet.evolve hands its observer states in the joint x basis, so the
per-period columns (trajectory_columns) read them there: the x
magnetizations, the entropy of the central density (the basis change is
local, so it keeps the spectrum) and the fidelity to the x-polarized start,
which in that basis is the first basis state.

On the lines lambda = 0 and 2pi the columns have a closed form
(product_series). series gives the columns of any drive points, and is the
one place that picks between the closed form and the engine, for the phase
map and evolve alike. At lambda = 0 the drive is the kick alone. At
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
checked against; classify calls it directly on the lambda = 2pi taxonomy,
and diagnostics.first_revival drives floquet.period_states, the periods
evolve runs, reading the fidelity through initial_fidelity.
"""

import math

import numpy as np

from .errors import ShapeError
from .hilbert import (CollectiveShape, x_polarized_state,
                      reduced_central_density, _hermitian_entropy)
from .floquet import (check_periods, finite_angles, precompute, evolve,
                      magnetic_numbers)


def _populations(amps: np.ndarray) -> np.ndarray:
    """|amps|^2 elementwise, by the same multiplications on every layout
    of the array, so a value does not depend on its neighbours."""
    return amps.real ** 2 + amps.imag ** 2


def magnetizations(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(satellite-averaged, central) <S^x> per state matrix of states, held
    in the joint x basis, any leading axes; the shape comes from the last
    two axes. From the x-polarized start, the observer for floquet.evolve
    that reads only the x magnetizations. Each matrix is an elementwise
    product and a sum over its entries, so it does not depend on the other
    matrices."""
    m_sat, m_c = map(magnetic_numbers, states.shape[-2:])
    p = _populations(states)
    return ((p * m_sat[:, None]).sum(axis=(-2, -1)) / (len(m_sat) - 1),
            (p * m_c).sum(axis=(-2, -1)))


def initial_fidelity(states: np.ndarray) -> np.ndarray:
    """Fidelity to the x-polarized start per state matrix of states in the
    joint x basis: |X_00|^2, the population of the first basis state."""
    return _populations(states[..., 0, 0])


def trajectory_columns(states: np.ndarray) -> tuple:
    """Observer for floquet.evolve from the x-polarized start: (satellite
    <S^x>, central <S^x>, entanglement entropy, fidelity to the start), one
    value per state matrix of states in the joint x basis. The reduced
    density is Hermitian by construction, so the entropy skips
    von_neumann_entropy's check."""
    return (*magnetizations(states),
            _hermitian_entropy(reduced_central_density(states)),
            initial_fidelity(states))


def is_product_line(lam) -> bool | np.ndarray:
    """Whether lambda mod 4pi is exactly 0 or 2pi, where product_series
    holds (elementwise over an array). In floats 4pi, 8pi and -4pi are 0
    mod 4pi, 6pi and -2pi are 2pi, and a lambda in [0, 4pi) is itself."""
    with np.errstate(invalid="ignore"):     # a non-finite lambda is nan
        lam = np.mod(lam, 4 * math.pi)
    return (lam == 0.0) | (lam == 2 * math.pi)


def product_series(shape: CollectiveShape, lam, g, periods: int):
    """(m_sat_x, m_c_x, entropy, fidelity) of the x-polarized start at
    periods 0..periods of the drive at a lambda that is 0 or 2pi mod 4pi
    (module docstring, is_product_line), each an array whose leading axis
    is the period number and whose other axes are those of lam and g
    broadcast together (floquet.finite_angles, which rejects a non-finite
    angle): one column per drive point. The entropy is exactly 0, and every
    value lies in its range exactly: |m_sat_x| <= 1/2, |m_c_x| <= s, the
    fidelity in [0, 1]. Every entry is computed by the same operations
    whatever the other points are."""
    check_periods(periods)
    lam, g = finite_angles(lam, g)
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


def series(shape: CollectiveShape, lam, g, periods: int) -> tuple:
    """(m_sat_x, m_c_x, entropy, fidelity) of the x-polarized start at
    periods 0..periods, with product_series' layout: each an array whose
    leading axis is the period number and whose other axes are those of
    lam and g broadcast together, 0-d for scalars.

    The one place that picks where the columns come from: at the points
    where is_product_line holds they are product_series, and the other
    points run as one state stack through floquet.evolve with
    trajectory_columns, period 0 being the start's (1/2, s, 0, 1). A
    point's columns do not depend on the other points of the call. A
    non-finite angle raises ShapeError, from whichever of the two computes
    its point's columns.
    """
    check_periods(periods)
    lam, g = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(g, dtype=float))
    out = np.empty((4, periods + 1) + lam.shape)
    out[:, 0] = np.reshape([0.5, shape.s, 0.0, 1.0], (4,) + (1,) * lam.ndim)
    closed = is_product_line(lam)
    if closed.any():
        out[:, :, closed] = product_series(shape, lam[closed], g[closed],
                                           periods)
    driven = ~closed
    if driven.any():
        stack = np.tile(x_polarized_state(shape), (driven.sum(), 1, 1))
        tables = precompute(shape, lam[driven], g[driven], g[driven])
        columns = evolve(stack, tables, periods, trajectory_columns)
        if columns:
            out[:, 1:, driven] = columns
    return tuple(out)
