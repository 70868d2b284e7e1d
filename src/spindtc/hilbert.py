"""Joint state space of n_sat satellite spin-1/2s and one central spin,
held on the permutation-symmetric subspace.

The satellites are identical, the drive treats them identically and every
workload starts from the x-polarized product, so the dynamics never leaves
the states symmetric under satellite permutations: the satellites act as
one spin J = n_sat/2 (the Dicke ladder), and a state is (n_sat + 1)(2s + 1)
amplitudes instead of 2^n_sat (2s + 1).

Index layout: global index = k_sat * (two_s + 1) + l_c. k_sat in
{0..n_sat} counts down spins on the Dicke ladder (k_sat = 0 is m = +J);
l_c in {0..two_s} labels central S^z levels in descending order (l_c = 0 is
m = +s). The central index is the fastest-varying one, so the interaction
phase per amplitude follows from k_sat and l_c alone. A density is a plain
(..., d, d) array, one matrix per row of a stack.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, CapacityError
from .spin_algebra import check_positive_int, coherent_axis_state

# Largest state vector we are willing to allocate (amplitude count).
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
    def dim(self) -> int:
        return (self.n_sat + 1) * (self.two_s + 1)

    @property
    def s(self) -> float:
        return self.two_s / 2.0


@dataclass
class PureState:
    """Complex amplitude vector over the joint satellite (x) central space.

    amplitudes may carry leading axes, one row per state of a stack: the
    drive step, norm, magnetizations, reduced central density and entropy
    act row by row.
    """

    shape: CollectiveShape
    amplitudes: np.ndarray

    def copy(self) -> "PureState":
        return PureState(self.shape, self.amplitudes.copy())

    def norm(self) -> float | np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=-1)


def x_polarized_state(shape: CollectiveShape) -> PureState:
    """All satellites in |+x>, central spin in |+s>^x."""
    # |+x>^n_sat is the extremal J^x state |J, +J>^x of the collective spin
    sat = coherent_axis_state(shape.n_sat, "x", "+")
    central = coherent_axis_state(shape.two_s, "x", "+")
    return PureState(shape, np.outer(sat, central).ravel())


def reduced_central_density(state: PureState) -> np.ndarray:
    """Partial trace over all satellite indices: the (..., d, d) central
    density, one matrix per row of a stack."""
    d = state.shape.central_dim
    mat = state.amplitudes.reshape(state.amplitudes.shape[:-1] + (-1, d))
    return mat.swapaxes(-1, -2) @ mat.conj()


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
