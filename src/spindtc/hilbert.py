"""Joint Hilbert space of N_sat satellite qubits plus one central spin.

Index layout: global index = k_sat * (two_s + 1) + l_c. The satellite
bitstring k_sat reads site 0 as the least significant bit, bit = 1 means
z-down; l_c in {0..two_s} labels central S^z levels in descending order
(l_c = 0 is m = +s). The central index is the fastest-varying one, so the
interaction phase per amplitude follows from popcount and l_c alone.

A CollectiveShape uses the same layout with k_sat in {0..n_sat} counting
down spins on the Dicke ladder of the total satellite spin J = n_sat/2
(k_sat = 0 is m = +J). It holds every state symmetric under satellite
permutations, the x-polarized product and all its drive evolutions among
them, in (n_sat + 1)(2s + 1) amplitudes instead of 2^n_sat (2s + 1).
Functions that only need the central index to vary fastest (inner products,
the reduced central density, entropy) work on both layouts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, CapacityError
from .spin_algebra import LocalState, coherent_axis_state

# Largest state vector we are willing to allocate (amplitude count).
MAX_DIMENSION = 1 << 26


@dataclass(frozen=True)
class SystemShape:
    """(number of satellite spin-1/2s, 2s of the central spin)."""

    n_sat: int
    two_s: int

    def __post_init__(self):
        if self.n_sat < 1 or self.two_s < 1:
            raise ShapeError(f"need n_sat >= 1 and two_s >= 1, got {self}")
        if self.largest_allocation > MAX_DIMENSION:
            raise CapacityError(
                f"{self} needs an array of {self.largest_allocation} entries, "
                f"over the budget {MAX_DIMENSION}")

    @property
    def largest_allocation(self) -> int:
        """Entries of the largest array the engine allocates for the shape."""
        return self.dim

    @property
    def central_dim(self) -> int:
        return self.two_s + 1

    @property
    def dim(self) -> int:
        return (1 << self.n_sat) * (self.two_s + 1)

    @property
    def s(self) -> float:
        return self.two_s / 2.0


@dataclass(frozen=True)
class CollectiveShape(SystemShape):
    """Satellites as one spin J = n_sat/2: the permutation-symmetric subspace.

    Its largest allocation is the dense (n_sat+1)^2 satellite rotation (or
    the (2s+1)^2 central one), so n_sat is not limited by 2^n_sat.
    """

    @property
    def dim(self) -> int:
        return (self.n_sat + 1) * (self.two_s + 1)

    @property
    def largest_allocation(self) -> int:
        return max(self.n_sat + 1, self.two_s + 1) ** 2


@dataclass
class PureState:
    """Complex amplitude vector over the joint satellite (x) central space.

    amplitudes may carry leading axes, one row per state of a stack: the
    drive step, norm, magnetizations, reduced central density and entropy
    act row by row. inner and fidelity take single states.
    """

    shape: SystemShape
    amplitudes: np.ndarray

    def copy(self) -> "PureState":
        return PureState(self.shape, self.amplitudes.copy())

    def norm(self) -> float | np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=-1)


@dataclass(frozen=True)
class DensityMatrix:
    dim: int
    entries: np.ndarray


def basis_index(shape: SystemShape, k_sat: int, l_c: int) -> int:
    """Encode (satellite bitstring, central level) into a global index."""
    if not (0 <= k_sat < shape.dim // shape.central_dim) or not (0 <= l_c <= shape.two_s):
        raise ShapeError(f"(k_sat={k_sat}, l_c={l_c}) out of range for {shape}")
    return k_sat * shape.central_dim + l_c


def split_index(shape: SystemShape, i: int) -> tuple[int, int]:
    """Decode a global index into (satellite bitstring, central level)."""
    if not (0 <= i < shape.dim):
        raise ShapeError(f"index {i} out of range for {shape}")
    return divmod(i, shape.central_dim)


def product_state(shape: SystemShape, sat_locals: list[LocalState],
                  central_local: LocalState) -> PureState:
    """Tensor product of per-site states in the declared index layout."""
    if isinstance(shape, CollectiveShape):
        raise ShapeError(f"{shape} holds no per-satellite product states")
    if len(sat_locals) != shape.n_sat:
        raise ShapeError(f"expected {shape.n_sat} satellite states, got {len(sat_locals)}")
    if central_local.dim != shape.central_dim:
        raise ShapeError(
            f"central state has dim {central_local.dim}, expected {shape.central_dim}")
    amps = central_local.amplitudes.astype(complex)
    # site 0 is the least significant bit, so it is the innermost kron factor
    for site in range(shape.n_sat):
        loc = sat_locals[site]
        if loc.dim != 2:
            raise ShapeError(f"satellite state at site {site} has dim {loc.dim}")
        amps = np.kron(loc.amplitudes.astype(complex), amps)
    amps = amps / np.linalg.norm(amps)
    return PureState(shape, amps)


def x_polarized_state(shape: SystemShape) -> PureState:
    """All satellites in |+x>, central spin in |+s>^x."""
    central = coherent_axis_state(shape.two_s, "x", "+")
    if isinstance(shape, CollectiveShape):
        # |+x>^n_sat is the extremal J^x state |J, +J>^x of the collective spin
        sat = coherent_axis_state(shape.n_sat, "x", "+")
        return PureState(shape, np.kron(sat.amplitudes, central.amplitudes).astype(complex))
    plus_x = coherent_axis_state(1, "x", "+")
    return product_state(shape, [plus_x] * shape.n_sat, central)


def inner(a: PureState, b: PureState) -> complex:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.amplitudes.ndim != 1 or b.amplitudes.ndim != 1:
        raise ShapeError("inner and fidelity take single states, not stacks")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: PureState, b: PureState) -> float:
    return float(abs(inner(a, b)) ** 2)


def reduced_central_density(state: PureState) -> DensityMatrix:
    """Partial trace over all satellite indices (per row of a stack)."""
    d = state.shape.central_dim
    mat = state.amplitudes.reshape(state.amplitudes.shape[:-1] + (-1, d))
    rho = mat.swapaxes(-1, -2) @ mat.conj()
    return DensityMatrix(dim=d, entries=rho)


def von_neumann_entropy(rho: DensityMatrix) -> float | np.ndarray:
    """-sum p ln p over the spectrum (natural log, tiny eigenvalues dropped).

    entries may be a stack of matrices; the result then has one entropy per
    matrix.
    """
    h = rho.entries.swapaxes(-1, -2).conj()
    # np.allclose(rho, h, atol=1e-10) written out: allclose costs more than
    # the eigendecomposition on the small central densities
    if not (np.abs(rho.entries - h) <= 1e-10 + 1e-5 * np.abs(h)).all():
        raise ShapeError("density matrix is not Hermitian")
    p = np.linalg.eigvalsh(rho.entries)
    p = np.where(p > 1e-14, p, 1.0)     # ln 1 = 0 drops the tiny ones
    return -(p * np.log(p)).sum(axis=-1)
