"""Closed-form milestone states of the special HO-DTC phase (lambda = pi,
g = pi/2 family), used as fidelity oracles for the evolved dynamics.

Each milestone is a superposition of at most four products of extremal
coherent states, sum over (satellite sign, central sign) of
c * prod_i |sign_s>^sat_axis (x) |sign_c * s>^cen_axis. On the collective
layout the satellite product prod_i |sign_s>^sat_axis is the extremal state
|J, sign_s J>^sat_axis of the spin J = n_sat/2, so each term is the outer
product of two coherent states (spin_algebra.coherent_axis_state, whose
amplitudes are the closed form's), a state matrix (hilbert), at any n_sat.
A shape's parity case (parity_case_of) picks its table. The coefficient
tables below are exact (entries in {0, +-1, +-i}); early times (t <= 3)
additionally depend on n_sat mod 4 and 2s mod 4, which the narrative
parity-case classification glosses over. Coefficients are fixed under this package's coherent-state
phase conventions and are global-phase normalized (first nonzero entry 1).
"""

import numpy as np

from .errors import ShapeError
from .hilbert import CollectiveShape
from .spin_algebra import coherent_axis_state

def parity_case_of(shape: CollectiveShape) -> str:
    odd = shape.n_sat % 2 == 1
    integer = shape.two_s % 2 == 0
    if odd and integer:
        return "odd_int"
    if odd:
        return "odd_half"
    if integer:
        return "even_int"
    return "even_half"


_I = 1j

# (sat_axis, cen_axis, coefficients ordered (+,+), (+,-), (-,+), (-,-));
# a dict value means lookup by (n_sat % 4, two_s % 4)
_MILESTONES = {
    "even_int": {
        1: ("y", "y", [1, 1, 1, -1]),
        2: ("x", "x", [1, -1, -1, -1]),
        3: ("y", "y", [0, 0, 0, 1]),
        4: ("x", "x", [1, 0, 0, 0]),
    },
    "odd_int": {
        3: ("y", "x", {(3, 2): [1, 1, -_I, _I], (1, 2): [1, 1, _I, -_I],
                       (3, 0): [1, -1, _I, _I], (1, 0): [1, -1, -_I, -_I]}),
        6: ("x", "x", [0, 0, 0, 1]),
        12: ("x", "x", [1, 0, 0, 0]),
    },
    "even_half": {
        3: ("x", "y", {(2, 1): [1, _I, 1, -_I], (2, 3): [1, -_I, 1, _I],
                       (0, 1): [1, -_I, -1, -_I], (0, 3): [1, _I, -1, _I]}),
        6: ("x", "x", [0, 0, 0, 1]),
        12: ("x", "x", [1, 0, 0, 0]),
    },
    "odd_half": {
        1: ("z", "z", {(3, 1): [1, -1, 1, 1], (3, 3): [1, 1, 1, -1],
                       (1, 1): [1, -1, -1, -1], (1, 3): [1, 1, -1, 1]}),
        2: ("y", "y", {(3, 1): [1, 1, -1, 1], (3, 3): [1, 1, 1, -1],
                       (1, 1): [1, -1, -1, -1], (1, 3): [1, -1, 1, 1]}),
        3: ("x", "x", {(3, 1): [1, -_I, _I, 1], (3, 3): [1, _I, _I, -1],
                       (1, 1): [1, -_I, -_I, -1], (1, 3): [1, _I, -_I, 1]}),
        4: ("z", "z", [1, -1, -1, 1]),   # product of two GHZ factors
        5: ("y", "y", [1, 0, 0, _I]),
        6: ("x", "x", [1, 0, 0, -_I]),   # joint GHZ state (quarter period)
        12: ("x", "x", [0, 0, 0, 1]),    # reversed polarization (half period)
        24: ("x", "x", [1, 0, 0, 0]),    # full revival
    },
}


def supported_time_indices(parity_case: str) -> tuple[int, ...]:
    try:
        return tuple(sorted(_MILESTONES[parity_case]))
    except KeyError:
        raise ShapeError(f"unknown parity case {parity_case!r}") from None


def milestone_state(shape: CollectiveShape, time_index: int) -> np.ndarray:
    """The normalized milestone superposition of the shape's parity case
    at time_index periods, as a state matrix."""
    case = parity_case_of(shape)
    try:
        sat_axis, cen_axis, coeffs = _MILESTONES[case][time_index]
    except KeyError:
        raise ShapeError(
            f"no milestone at t={time_index}T for case {case}; "
            f"supported: {supported_time_indices(case)}") from None
    if isinstance(coeffs, dict):
        coeffs = coeffs[(shape.n_sat % 4, shape.two_s % 4)]
    amps = np.zeros(shape.dims, dtype=complex)
    for c, (sat_sign, cen_sign) in zip(coeffs, (("+", "+"), ("+", "-"),
                                                ("-", "+"), ("-", "-"))):
        if c == 0:
            continue
        amps += c * np.outer(
            coherent_axis_state(shape.n_sat, sat_axis, sat_sign),
            coherent_axis_state(shape.two_s, cen_axis, cen_sign))
    amps /= np.linalg.norm(amps)
    return amps

