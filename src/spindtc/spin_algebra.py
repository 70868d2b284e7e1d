"""Spin-s operator matrices, the S^x eigenbasis and extremal coherent states.

Conventions: hbar = 1, Condon-Shortley phases for the ladder operators,
z basis ordered by descending magnetic quantum number (index l holds m = s - l).
A coherent state is its array of 2s + 1 amplitudes in that basis, from the
closed form, so its phases never come from an eigensolver.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class SpinOperators:
    """The three spin components for a spin s = two_s / 2 particle."""

    two_s: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def check_positive_int(name: str, value) -> None:
    """Raise ShapeError unless value is a positive Python or NumPy integer."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ShapeError(f"{name} must be a positive integer, got {value!r}")


def spin_matrices(two_s: int) -> SpinOperators:
    """Build sx, sy, sz for spin s = two_s / 2 from the ladder operators."""
    check_positive_int("two_s", two_s)
    d = two_s + 1
    s = two_s / 2.0
    m = s - np.arange(d)  # descending: s, s-1, ..., -s
    # S+ |s, m> = sqrt(s(s+1) - m(m+1)) |s, m+1>; row index of m+1 is one above m
    raising = np.zeros((d, d), dtype=complex)
    for l in range(1, d):
        raising[l - 1, l] = np.sqrt(s * (s + 1) - m[l] * (m[l] + 1))
    lowering = raising.conj().T
    sx = (raising + lowering) / 2.0
    sy = (raising - lowering) / 2j
    sz = np.diag(m).astype(complex)
    return SpinOperators(two_s=int(two_s), sx=sx, sy=sy, sz=sz)


@lru_cache(maxsize=64, typed=True)
def x_eigenbasis(two_s: int) -> np.ndarray:
    """Real orthogonal matrix whose columns are eigenvectors of S^x: eigh
    of the real S^x, float64.

    Columns are ordered by descending eigenvalue (column l holds m = s - l)
    and each column's sign is fixed so its first nonzero entry is positive,
    making the matrix deterministic. Built once per two_s and shared, so
    the array is read-only.
    """
    evals, vecs = np.linalg.eigh(spin_matrices(two_s).sx.real)
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
