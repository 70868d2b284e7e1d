"""DTC classification: stroboscopic averages, order parameters, revival
periods and the tabulated predictions for the various DTC families.

first_revival measures the revival period: it drives the x-polarized start
one period at a time and stops at the first period whose fidelity to the
start is above 1 - epsilon, reading nothing but that fidelity, so a
revival at period r costs r periods.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, NotTabulatedError
from .hilbert import x_polarized_state
from .floquet import StepTables, period_states
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
    if max_periods < 0:     # evolve's message, ahead of the empty one
        raise ShapeError(f"n_periods must be >= 0, got {max_periods}")
    if max_periods == 0:
        raise ShapeError("empty trajectory")
    check_epsilon(epsilon)
    states = period_states(x_polarized_state(tables.shape), tables)
    for n, x in zip(range(1, max_periods + 1), states):
        if initial_fidelity(x) > 1 - epsilon:
            return n
    return None


# Table-driven predictions. Keys are (n_sat parity, s parity) or residue pairs.

_LAMBDA_2PI_TABLE = {
    # (n_sat even?, s integer?) -> (satellite behavior, central behavior, label)
    (True, True): ("sinusoidal", "sinusoidal", "Rabi oscillation"),
    (True, False): ("period doubling", "sinusoidal", "sub-system DTC"),
    (False, True): ("sinusoidal", "period doubling", "sub-system DTC"),
    (False, False): ("period doubling", "period doubling", "eternal DTC"),
}

_SPECIAL_HO_TABLE = {
    (True, True): 4,
    (True, False): 12,
    (False, True): 12,
    (False, False): 24,
}

# regular HO-DTC classes, keyed by (n_sat mod 4, s even integer?)
_REGULAR_CLASS_1 = {(0, True): 24, (0, False): 24, (2, True): 24, (2, False): 12}
_REGULAR_CLASS_2 = {(0, True): 12, (0, False): 24, (2, True): 24, (2, False): 24}


@dataclass(frozen=True)
class DtcPrediction:
    regime: str
    period: int | None            # None for the lambda = 2pi taxonomy
    satellite_behavior: str | None
    central_behavior: str | None
    label: str | None


def predict_dtc_class(n_sat: int, two_s: int, regime: str) -> DtcPrediction:
    """Look up the tabulated prediction; never extrapolates beyond the tables."""
    if n_sat < 1 or two_s < 1:
        raise ShapeError(f"invalid (n_sat={n_sat}, two_s={two_s})")
    even_sat = n_sat % 2 == 0
    integer_s = two_s % 2 == 0
    if regime == "lambda_2pi":
        sat, cen, label = _LAMBDA_2PI_TABLE[(even_sat, integer_s)]
        return DtcPrediction(regime, None, sat, cen, label)
    if regime == "special_ho":
        return DtcPrediction(regime, _SPECIAL_HO_TABLE[(even_sat, integer_s)],
                             None, None, "special HO-DTC")
    if regime in ("regular_class_1", "regular_class_2"):
        if not even_sat or not integer_s:
            raise NotTabulatedError(
                f"regular HO-DTC tables only cover even n_sat and integer s, "
                f"got (n_sat={n_sat}, two_s={two_s})")
        s_even = (two_s // 2) % 2 == 0
        table = _REGULAR_CLASS_1 if regime == "regular_class_1" else _REGULAR_CLASS_2
        return DtcPrediction(regime, table[n_sat % 4, s_even], None, None, regime)
    raise ShapeError(f"unknown regime {regime!r}")


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

    series[n] is the magnetization at nT, n = 0..len-1, with len >= 2.
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
    even = y[::2]
    if np.max(np.abs(even - maximum)) < _TAXONOMY_TOL:
        if np.max(np.abs(y - maximum)) > 10 * _TAXONOMY_TOL:
            return "period doubling"
        return "frozen"
    amp, resid = fit_cosine_amplitude(even, g)
    if resid < _TAXONOMY_TOL and abs(amp - maximum) < _TAXONOMY_TOL:
        return "sinusoidal"
    return "neither"
