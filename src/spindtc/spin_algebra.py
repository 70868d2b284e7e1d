"""Spin-s operator matrices, axis eigenbases and extremal coherent states.

Conventions: hbar = 1, Condon-Shortley phases for the ladder operators,
z basis ordered by descending magnetic quantum number (index l holds m = s - l).
"""

import cmath
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

    @property
    def dim(self) -> int:
        return self.two_s + 1


@dataclass(frozen=True)
class LocalState:
    """Normalized single-particle state in the z basis."""

    dim: int
    amplitudes: np.ndarray


def spin_matrices(two_s: int) -> SpinOperators:
    """Build sx, sy, sz for spin s = two_s / 2 from the ladder operators."""
    if not isinstance(two_s, (int, np.integer)) or two_s < 1:
        raise ShapeError(f"two_s must be a positive integer, got {two_s!r}")
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
    positive, making the matrix deterministic. Built once per (two_s, axis)
    and shared, so the array is read-only.
    """
    ops = spin_matrices(two_s)
    if axis == "z":
        eye = np.eye(two_s + 1, dtype=complex)
        eye.flags.writeable = False
        return eye
    try:
        op = {"x": ops.sx, "y": ops.sy}[axis]
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


def coherent_axis_state(two_s: int, axis: str, sign: str) -> LocalState:
    """Extremal eigenstate |+-s> along the given axis, in the z basis.

    Along x and y its phase is the closed form's: amplitude k (m = s - k) is
    sqrt(C(2s, k)) 2^(-s) p^k, with p = +-1 on x and +-i on y. Each
    eigenbasis column already carries that phase times a power of i, which
    axis_eigenbasis's rule leaves at 1 while the first amplitude, 2^(-s), is
    above its 1e-12 cutoff (2s < 80); the column is turned by that power,
    read at its largest amplitude, far above rounding.
    """
    if sign not in ("+", "-"):
        raise ShapeError(f"sign must be '+' or '-', got {sign!r}")
    basis = axis_eigenbasis(two_s, axis)
    amps = basis[:, 0 if sign == "+" else two_s].copy()
    if axis != "z":
        p = (1 if axis == "x" else 1j) * (1 if sign == "+" else -1)
        k = int(np.abs(amps).argmax())
        turns = round(cmath.phase(complex(amps[k]) / p ** (k % 4)) / (math.pi / 2)) % 4
        if turns:
            amps *= (1, -1j, -1, 1j)[turns]
    return LocalState(dim=two_s + 1, amplitudes=amps)
