"""Joint state space of n_sat satellite spin-1/2s and one central spin,
held on the permutation-symmetric subspace.

The satellites are identical, the drive treats them identically and every
workload starts from the x-polarized product, so the dynamics never leaves
the states symmetric under satellite permutations: the satellites act as
one spin J = n_sat/2 (the Dicke ladder), and a state is (n_sat + 1)(2s + 1)
amplitudes instead of 2^n_sat (2s + 1).

A state of the two spins is a complex (n_sat + 1, 2s + 1) matrix X, with
any leading axes for a stack of states (one matrix per row). Its first
axis, k_sat in {0..n_sat}, counts down spins on the Dicke ladder (k_sat = 0
is m = +J); its second, l_c in {0..two_s}, labels central S^z levels in
descending order (l_c = 0 is m = +s). So an operator on one spin acts from
one side, A X on the satellites and X B^T on the central spin, and the
interaction phase of an amplitude follows from its two indices alone. A
density is a plain (..., d, d) array, one matrix per row of a stack.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, CapacityError
from .spin_algebra import check_positive_int, coherent_axis_state

# Largest array we are willing to allocate (entry count).
MAX_DIMENSION = 1 << 26


@dataclass(frozen=True)
class CollectiveShape:
    """(number of satellite spin-1/2s, 2s of the central spin), the
    satellites held as one spin J = n_sat/2.

    Its largest allocation is the dense (n_sat+1)^2 satellite rotation (or
    the (2s+1)^2 central one), so n_sat is not limited by 2^n_sat.
    """

    n_sat: int
    two_s: int

    def __post_init__(self):
        check_positive_int("n_sat", self.n_sat)
        check_positive_int("two_s", self.two_s)
        largest = max(self.n_sat + 1, self.two_s + 1) ** 2
        if largest > MAX_DIMENSION:
            raise CapacityError(
                f"{self} needs an array of {largest} entries, "
                f"over the budget {MAX_DIMENSION}")

    @property
    def central_dim(self) -> int:
        return self.two_s + 1

    @property
    def dims(self) -> tuple[int, int]:
        """(n_sat + 1, 2s + 1), the shape of one state matrix."""
        return self.n_sat + 1, self.two_s + 1

    @property
    def s(self) -> float:
        return self.two_s / 2.0


def x_polarized_state(shape: CollectiveShape) -> np.ndarray:
    """All satellites in |+x>, central spin in |+s>^x: the product state
    matrix, a new array."""
    # |+x>^n_sat is the extremal J^x state |J, +J>^x of the collective spin
    return np.outer(coherent_axis_state(shape.n_sat, "x", "+"),
                    coherent_axis_state(shape.two_s, "x", "+"))


def reduced_central_density(state: np.ndarray) -> np.ndarray:
    """Partial trace over the satellite axis, X^T X*: the (..., d, d)
    central density, one matrix per state matrix of a stack."""
    return state.swapaxes(-1, -2) @ state.conj()


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """-sum p ln p over the spectrum (natural log, tiny eigenvalues dropped).

    rho may be a (..., d, d) stack of matrices; the result then has one
    entropy per matrix. Raises ShapeError if a matrix is not Hermitian.
    """
    h = rho.swapaxes(-1, -2).conj()
    # np.allclose(rho, h, atol=1e-10) written out: allclose costs more than
    # the eigendecomposition on the small central densities
    if not (np.abs(rho - h) <= 1e-10 + 1e-5 * np.abs(h)).all():
        raise ShapeError("density matrix is not Hermitian")
    return _hermitian_entropy(rho)


def _hermitian_entropy(rho: np.ndarray) -> float | np.ndarray:
    """von_neumann_entropy without the Hermiticity check, for densities that
    are Hermitian by construction (reduced_central_density's)."""
    p = np.linalg.eigvalsh(rho)
    p = np.where(p > 1e-14, p, 1.0)     # ln 1 = 0 drops the tiny ones
    return -(p * np.log(p)).sum(axis=-1)
