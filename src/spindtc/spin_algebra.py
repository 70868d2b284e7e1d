"""Single-spin facts: the magnetic numbers, the S^x eigenbasis and extremal
coherent states.

Conventions: hbar = 1, Condon-Shortley phases for the ladder operators,
z basis ordered by descending magnetic quantum number (index l holds m = s - l).
A coherent state is its array of 2s + 1 amplitudes in that basis, from the
closed form, so its phases never come from an eigensolver.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ShapeError


def check_positive_int(name: str, value) -> None:
    """Raise ShapeError unless value is a positive Python or NumPy integer."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ShapeError(f"{name} must be a positive integer, got {value!r}")


def magnetic_numbers(dim: int) -> np.ndarray:
    """S^z of a spin of dim levels, by descending level: J^z per satellite
    index at dim = n_sat + 1, central S^z per level at dim = 2s + 1.

    The same numbers are the S^x eigenvalues in the joint x basis
    (floquet.to_x_basis).
    """
    return (dim - 1) / 2.0 - np.arange(dim)


@lru_cache(maxsize=64, typed=True)
def x_eigenbasis(two_s: int) -> np.ndarray:
    """Real orthogonal matrix whose columns are eigenvectors of S^x: eigh
    of the real S^x, (S+ + S-) / 2 from the ladder, float64.

    Columns are ordered by descending eigenvalue (column l holds m = s - l)
    and each column's sign is fixed so its first nonzero entry is positive,
    making the matrix deterministic. Built once per two_s and shared, so
    the array is read-only.
    """
    check_positive_int("two_s", two_s)
    s, m = two_s / 2.0, magnetic_numbers(two_s + 1)
    # S+ |s, m> = sqrt(s(s+1) - m(m+1)) |s, m+1>, one row above the column of m
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    evals, vecs = np.linalg.eigh((np.diag(ladder, 1) + np.diag(ladder, -1)) / 2.0)
    vecs = vecs[:, np.argsort(evals)[::-1]]
    first = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(two_s + 1)]
    vecs = vecs / np.sign(first)
    vecs.flags.writeable = False
    return vecs


def coherent_axis_state(two_s: int, axis: str, sign: str) -> np.ndarray:
    """Extremal eigenstate |+-s> along the given axis: its 2s + 1 complex
    amplitudes in the z basis.

    Along x and y amplitude k (m = s - k) is sqrt(C(2s, k) / 2^(2s)) p^k,
    with p = +-1 on x and +-i on y; along z the state is a basis vector.
    C(2s, k) steps exactly as a Python integer (C(2s, k + 1) =
    C(2s, k)(2s - k)/(k + 1)), so C(2s, k) / 2^(2s) is rounded once, by
    Python's int / int division, and p^k is one of p's four exact powers.
    """
    check_positive_int("two_s", two_s)
    if sign not in ("+", "-"):
        raise ShapeError(f"sign must be '+' or '-', got {sign!r}")
    if axis == "z":     # basis vector l = 0 or 2s: a 1 x (2s + 1) eye's row
        return np.eye(1, two_s + 1, 0 if sign == "+" else two_s, dtype=complex)[0]
    if axis not in ("x", "y"):
        raise ShapeError(f"axis must be one of x, y, z, got {axis!r}")
    p = complex(1 if axis == "x" else 1j) * (1 if sign == "+" else -1)
    powers = (1, p, p * p, p * p * p)
    amps, binomial, total = [], 1, 2 ** two_s
    for k in range(two_s + 1):
        amps.append(math.sqrt(binomial / total) * powers[k % 4])
        binomial = binomial * (two_s - k) // (k + 1)
    return np.array(amps)
