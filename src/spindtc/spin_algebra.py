"""Spin-s operator matrices, axis eigenbases and extremal coherent states.

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
def axis_eigenbasis(two_s: int, axis: str) -> np.ndarray:
    """Unitary whose columns are eigenvectors of the requested spin component.

    Columns are ordered by descending eigenvalue (column l holds m = s - l)
    and each column's phase is fixed so its first nonzero entry is real
    positive, making the matrix deterministic. The x basis is eigh of the
    real S^x, so it is real (float64); the y basis is complex and the z
    basis the identity. Built once per (two_s, axis) and shared, so the
    array is read-only.
    """
    ops = spin_matrices(two_s)
    if axis == "z":
        eye = np.eye(two_s + 1, dtype=complex)
        eye.flags.writeable = False
        return eye
    try:
        op = {"x": ops.sx.real, "y": ops.sy}[axis]
    except KeyError:
        raise ShapeError(f"axis must be one of x, y, z, got {axis!r}") from None
    evals, vecs = np.linalg.eigh(op)
    order = np.argsort(evals)[::-1]
    vecs = vecs[:, order]
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        idx = np.argmax(np.abs(v) > 1e-12)
        phase = v[idx] / abs(v[idx])
        vecs[:, col] = v / phase
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
