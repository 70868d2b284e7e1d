"""DTC classification: stroboscopic averages, order parameters, revival
periods and the tabulated predictions for the various DTC families.

REGIMES is classify's one table of regimes, keyed by the command's names
(lambda2pi, special, regular1, regular2): each regime's default drive
point, and the regular classes' periods. The other two are tabulated by
parity class (analytic_states.parity_case_of): lambda_2pi_taxonomy reads
the behaviors at lambda = 2pi, and tabulated_period reads special's period
as the time of the class's full revival, its last milestone.

first_revival measures the revival period: it drives the x-polarized start
one period at a time and stops at the first period whose fidelity to the
start is above 1 - epsilon, reading nothing but that fidelity, so a
revival at period r costs r periods.
"""

import numpy as np

from .errors import ShapeError, NotTabulatedError
from .hilbert import CollectiveShape, x_polarized_state
from .analytic_states import parity_case_of, supported_time_indices
from .floquet import StepTables, check_periods, period_states
from .observables import initial_fidelity

DEFAULT_REVIVAL_EPSILON = 1e-8
DEFAULT_PERIOD_SCAN_MAX = 64
# how far classify_subsystem lets a magnetization miss its pattern
_TAXONOMY_TOL = 1e-8


def _period_sum(values) -> np.ndarray:
    """values summed along their leading axis, one after the other. np.sum
    would sum a single row pairwise, and a point's average would then
    depend on how many rows share its stack."""
    return np.add.accumulate(values, axis=0)[-1]


def stroboscopic_average(series, stride: int, count: int):
    """(1/count) * sum of series[n*stride] for n = 1..count.

    series is indexed by period number, series[0] being the initial value:
    a list, or an array whose leading axis is the period number. Its
    entries may be arrays (one value per row of a state stack); the average
    is then taken row by row.
    """
    if stride < 1 or count < 1:
        raise ShapeError(f"stride and count must be positive, got {stride}, {count}")
    if len(series) <= count * stride:
        raise ShapeError(
            f"series of length {len(series)} too short for count={count}, stride={stride}")
    return _period_sum(np.asarray(series[stride:count * stride + 1:stride])) / count


def relative_order_parameter(series, count: int) -> tuple:
    """Time averages of (-1)^n M(nT) and M(nT), and their difference
    (row by row when the entries of series are arrays); series is indexed
    as for stroboscopic_average."""
    if count < 1 or len(series) <= count:
        raise ShapeError(f"series of length {len(series)} too short for count={count}")
    values = np.asarray(series[1:count + 1])
    signed = values.copy()
    signed[::2] *= -1   # odd n
    o_dtc = _period_sum(signed) / count
    o_dmf = _period_sum(values) / count
    return o_dtc, o_dmf, o_dtc - o_dmf


def check_epsilon(epsilon: float) -> None:
    """A revival tolerance must lie in (0, 1)."""
    if not (0 < epsilon < 1):
        raise ShapeError(f"epsilon must be in (0, 1), got {epsilon}")


def first_revival(tables: StepTables, max_periods: int,
                  epsilon: float = DEFAULT_REVIVAL_EPSILON) -> int | None:
    """The first period, 1..max_periods, at which the x-polarized start of
    tables.shape revives (fidelity to it above 1 - epsilon), or None,
    without recording the trajectory.

    It drives that start one period at a time (floquet.period_states) and
    reads each period's fidelity as evolve's fidelity column does
    (observables.initial_fidelity), so a revival at period r costs r
    periods, and none costs max_periods.
    """
    check_periods(max_periods)     # evolve's message, ahead of the empty one
    if max_periods == 0:
        raise ShapeError("empty trajectory")
    check_epsilon(epsilon)
    states = period_states(x_polarized_state(tables.shape), tables)
    for n, x in zip(range(1, max_periods + 1), states):
        if initial_fidelity(x) > 1 - epsilon:
            return n
    return None


# classify's regimes by command name: (default drive point (lambda, g),
# regular HO-DTC periods keyed by (n_sat mod 4, s even integer?), or None
# for the two regimes tabulated by parity class). The regular points are
# reported; which regular class sits at which drive point is not a settled
# fact
REGIMES = {
    "lambda2pi": ((2 * np.pi, 3.0), None),
    "special": ((np.pi, np.pi / 2), None),
    "regular1": ((np.pi, np.pi / 4),
                 {(0, True): 24, (0, False): 24, (2, True): 24, (2, False): 12}),
    "regular2": ((np.pi / 2, np.pi / 2),
                 {(0, True): 12, (0, False): 24, (2, True): 24, (2, False): 24}),
}

# parity class (analytic_states.parity_case_of) -> (satellite behavior,
# central behavior, label) at lambda = 2pi
_LAMBDA_2PI_TABLE = {
    "even_int": ("sinusoidal", "sinusoidal", "Rabi oscillation"),
    "even_half": ("period doubling", "sinusoidal", "sub-system DTC"),
    "odd_int": ("sinusoidal", "period doubling", "sub-system DTC"),
    "odd_half": ("period doubling", "period doubling", "eternal DTC"),
}


def lambda_2pi_taxonomy(shape: CollectiveShape) -> tuple[str, str, str]:
    """The tabulated (satellite behavior, central behavior, label) of the
    shape's magnetizations at lambda = 2pi, by its parity class."""
    return _LAMBDA_2PI_TABLE[parity_case_of(shape)]


def tabulated_period(shape: CollectiveShape, regime: str) -> int:
    """The tabulated period of regime special, regular1 or regular2 at the
    shape; never extrapolates beyond the tables.

    special's is the time of the full revival, the last milestone of the
    shape's parity class (analytic_states). The regular tables cover even
    n_sat and integer s only, and raise NotTabulatedError elsewhere.
    """
    if regime == "special":
        return max(supported_time_indices(parity_case_of(shape)))
    _, table = REGIMES.get(regime, (None, None))
    if table is None:
        raise ShapeError(f"regime {regime!r} has no tabulated period")
    if shape.n_sat % 2 or shape.two_s % 2:
        raise NotTabulatedError(
            f"regular HO-DTC tables only cover even n_sat and integer s, "
            f"got (n_sat={shape.n_sat}, two_s={shape.two_s})")
    return table[shape.n_sat % 4, shape.two_s % 4 == 0]


def fit_cosine_amplitude(series_2nT, g: float) -> tuple[float, float]:
    """Least-squares amplitude and residual of series[n] ~ A*cos(2*g*n).

    series_2nT[n] is the value at time 2nT, n = 0, 1, 2, ...
    """
    y = np.asarray(series_2nT, dtype=float)
    n = np.arange(len(y))
    c = np.cos(2.0 * g * n)
    denom = float(c @ c)
    if denom < 1e-30:
        raise ShapeError("cosine basis degenerate for this g")
    amp = float(c @ y) / denom
    resid = float(np.max(np.abs(y - amp * c)))
    return amp, resid


def classify_subsystem(series, g: float, maximum: float) -> str:
    """Measured taxonomy of one subsystem's magnetization at lambda = 2pi.

    series[n] is the magnetization at nT, n = 0..len-1, with len >= 3, so
    that at least one driven period, series[2], is even: a series of one
    entry raises ShapeError "empty trajectory", and one of two names the
    2-period minimum.
    Returns 'frozen' when the even periods series[2n] lie within
    _TAXONOMY_TOL of +maximum and every period within 10 times it; 'period
    doubling' when the even periods do and an odd one does not; else
    'sinusoidal' when the even periods fit A cos(2 g n), with A the free
    least-squares amplitude of fit_cosine_amplitude, every residual below
    _TAXONOMY_TOL and A itself within _TAXONOMY_TOL of maximum; else
    'neither', which a vanished (A = 0), inverted (A = -maximum) or shrunken
    oscillation is.
    """
    y = np.asarray(series, dtype=float)
    if len(y) < 2:
        raise ShapeError("empty trajectory")
    if len(y) < 3:
        raise ShapeError(
            f"the taxonomy needs at least 2 periods, got {len(y) - 1}")
    even = y[::2]
    if np.max(np.abs(even - maximum)) < _TAXONOMY_TOL:
        if np.max(np.abs(y - maximum)) > 10 * _TAXONOMY_TOL:
            return "period doubling"
        return "frozen"
    amp, resid = fit_cosine_amplitude(even, g)
    if resid < _TAXONOMY_TOL and abs(amp - maximum) < _TAXONOMY_TOL:
        return "sinusoidal"
    return "neither"
