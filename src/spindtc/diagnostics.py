"""DTC classification: stroboscopic averages, order parameters, period
detection and the tabulated predictions for the various DTC families."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, NotTabulatedError
from .observables import TrajectoryRecord

DEFAULT_REVIVAL_EPSILON = 1e-8
DEFAULT_PERIOD_SCAN_MAX = 64


@dataclass(frozen=True)
class PeriodReport:
    detected_period: int | None
    revival_fidelity: float
    magnetization_period: int | None


def stroboscopic_average(series, stride: int, count: int):
    """(1/count) * sum of series[n*stride] for n = 1..count.

    series is indexed by period number, series[0] being the initial value.
    Its entries may be arrays (one value per row of a state stack); the
    average is then taken row by row.
    """
    if stride < 1 or count < 1:
        raise ShapeError(f"stride and count must be positive, got {stride}, {count}")
    if len(series) <= count * stride:
        raise ShapeError(
            f"series of length {len(series)} too short for count={count}, stride={stride}")
    return sum(series[n * stride] for n in range(1, count + 1)) / count


def relative_order_parameter(series, count: int) -> tuple:
    """Time averages of (-1)^n M(nT) and M(nT), and their difference
    (row by row when the entries of series are arrays)."""
    if count < 1 or len(series) <= count:
        raise ShapeError(f"series of length {len(series)} too short for count={count}")
    o_dtc = sum((-1) ** n * series[n] for n in range(1, count + 1)) / count
    o_dmf = sum(series[n] for n in range(1, count + 1)) / count
    return o_dtc, o_dmf, o_dtc - o_dmf


def detect_period(trajectory: list[TrajectoryRecord],
                  epsilon: float = DEFAULT_REVIVAL_EPSILON) -> PeriodReport:
    """Find the first full revival and the period of the magnetization signal."""
    if not trajectory:
        raise ShapeError("empty trajectory")
    if not (0 < epsilon < 1):
        raise ShapeError(f"epsilon must be in (0, 1), got {epsilon}")
    detected = None
    rev_fid = 0.0
    for rec in trajectory:
        if rec.fidelity_initial > 1 - epsilon:
            detected = rec.n
            rev_fid = rec.fidelity_initial
            break
    m = np.array([rec.m_sat_x for rec in trajectory])
    # only shifts that already match at i = 0 need the full comparison
    shifts = np.flatnonzero(np.abs(m[1:] - m[0]) <= epsilon) + 1
    mag_period = next((int(p) for p in shifts
                       if (np.abs(m[p:] - m[:-p]) <= epsilon).all()), None)
    return PeriodReport(detected_period=detected, revival_fidelity=rev_fid,
                        magnetization_period=mag_period)


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
        key = (n_sat % 4, s_even)
        if key not in table:
            raise NotTabulatedError(f"no row for (n_sat={n_sat}, s={two_s}/2) in {regime}")
        return DtcPrediction(regime, table[key], None, None, regime)
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


def classify_subsystem(series, g: float, maximum: float,
                       tol: float = 1e-8) -> str:
    """Measured taxonomy of one subsystem's magnetization at lambda = 2pi.

    series[n] is the magnetization at nT, n = 0..len-1. Returns
    'period doubling' when the every-other-period values revive at +maximum
    while the full sequence is not 1T-periodic, else 'sinusoidal' when the
    stroboscopic values fit maximum*cos(2 g n).
    """
    y = np.asarray(series, dtype=float)
    even = y[::2]
    if np.max(np.abs(even - maximum)) < tol:
        if np.max(np.abs(y - maximum)) > 10 * tol:
            return "period doubling"
        return "frozen"
    amp, resid = fit_cosine_amplitude(even, g)
    if resid < tol:
        return "sinusoidal"
    return "neither"
