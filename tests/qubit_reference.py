"""The 2^n layout and the dense oracle: the reference the collective engine
is tested against.

Here the n_sat satellites are kept as qubits, one by one. Index layout:
global index = bitstring * (2s + 1) + central level, site 0 the least
significant bit, bit 1 meaning z-down, central levels by descending m. So a
state symmetric under satellite permutations with collective state matrix
c[k, l] (k down spins) has c[k, l] / sqrt(C(n_sat, k)) at every bitstring of
popcount k (spread). Nothing here uses that symmetry: drive kicks in the z
basis and rotates every qubit into its x basis for the interaction, and the
oracle builds dense unitaries from explicit operator sums. A drive point
is its angles (lam, g_s, g_c), one tuple. From spindtc it takes only the
spin matrices, the x eigenbasis and the coherent states.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from spindtc.spin_algebra import spin_matrices, x_eigenbasis, coherent_axis_state


@dataclass(frozen=True)
class SystemShape:
    """(number of satellite qubits, 2s of the central spin) on the 2^n
    layout."""

    n_sat: int
    two_s: int

    @property
    def central_dim(self) -> int:
        return self.two_s + 1

    @property
    def dim(self) -> int:
        return (1 << self.n_sat) * self.central_dim


def _popcounts(shape: SystemShape) -> np.ndarray:
    """Down spins per satellite bitstring."""
    return np.array([b.bit_count() for b in range(1 << shape.n_sat)])


def _magnetic_numbers(shape: SystemShape) -> tuple[np.ndarray, np.ndarray]:
    """(total satellite S^z per bitstring, central S^z per level): the
    eigenvalues of S^a in the joint eigenbasis of any axis a."""
    return (shape.n_sat / 2 - _popcounts(shape),
            shape.two_s / 2 - np.arange(shape.central_dim))


def product_state(sat_locals, central_local) -> np.ndarray:
    """Tensor product of per-site states (amplitude arrays), site 0 first."""
    amps = central_local.astype(complex)
    for loc in sat_locals:      # site 0 is the innermost kron factor
        amps = np.kron(loc.astype(complex), amps)
    return amps / np.linalg.norm(amps)


def x_polarized(shape: SystemShape) -> np.ndarray:
    """All satellites in |+x>, central spin in |+s>^x."""
    return product_state([coherent_axis_state(1, "x", "+")] * shape.n_sat,
                         coherent_axis_state(shape.two_s, "x", "+"))


def spread(shape: SystemShape, collective: np.ndarray) -> np.ndarray:
    """A collective state matrix c[k, l] (k down spins, central level l)
    over the 2^n basis of shape."""
    down = _popcounts(shape)
    norms = np.sqrt([comb(shape.n_sat, k) for k in range(shape.n_sat + 1)])
    return (collective[down] / norms[down, None]).reshape(-1)


def _rotate_qubits(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """mat, a (bitstring, central level) matrix, with the 2x2 matrix u
    applied to every satellite qubit, in place."""
    (a, b), (c, e) = u
    inner = mat.shape[-1]
    while inner < mat.size:
        v = mat.reshape(-1, 2, inner)
        top, bottom = v[:, 0], v[:, 1]
        new_top = a * top + b * bottom
        bottom[...] = c * top + e * bottom
        top[...] = new_top
        inner *= 2
    return mat


def magnetizations(shape: SystemShape, amps: np.ndarray) -> tuple[float, float]:
    """(satellite-averaged, central) <S^x> of a z-basis state: its
    populations in the joint eigenbasis of S^x weighted by the magnetic
    numbers."""
    mat = _rotate_qubits(amps.reshape(-1, shape.central_dim).copy(),
                         x_eigenbasis(1).T)
    p = np.abs(mat @ x_eigenbasis(shape.two_s)) ** 2
    m_sat, m_c = _magnetic_numbers(shape)
    return float(p.sum(axis=1) @ m_sat) / shape.n_sat, float(p.sum(axis=0) @ m_c)


def entropy(shape: SystemShape, amps: np.ndarray) -> float:
    """Entanglement entropy of the central spin, in nats."""
    mat = amps.reshape(-1, shape.central_dim)
    p = np.linalg.eigvalsh(mat.T @ mat.conj())
    p = p[p > 1e-14]
    return float(-(p * np.log(p)).sum())


def drive(shape: SystemShape, angles, amps: np.ndarray,
          n_periods: int) -> np.ndarray:
    """The z-basis states after each of n_periods periods of (kick;
    interaction) at angles (lam, g_s, g_c) from the z-basis state amps, one
    row per period. The kick is diagonal in the z basis, the interaction in
    the joint x basis."""
    lam, g_s, g_c = angles
    m_sat, m_c = _magnetic_numbers(shape)
    kick = np.exp(-1j * (g_s * m_sat[:, None] + g_c * m_c))
    interaction = np.exp(1j * lam * np.outer(m_sat, m_c))
    v_s, v_c = x_eigenbasis(1), x_eigenbasis(shape.two_s)
    mat, states = amps.reshape(-1, shape.central_dim), []
    for _ in range(n_periods):
        x = _rotate_qubits(mat * kick, v_s.conj().T) @ v_c.conj()
        mat = _rotate_qubits((x * interaction) @ v_c.T, v_s)
        states.append(mat.reshape(-1))
    return np.array(states)


def _site_operator(shape: SystemShape, site: int, op2: np.ndarray) -> np.ndarray:
    left = np.eye(1 << (shape.n_sat - 1 - site))
    right = np.eye((1 << site) * shape.central_dim)
    return np.kron(left, np.kron(op2, right))


def _expm_hermitian(h: np.ndarray, prefactor: complex) -> np.ndarray:
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(prefactor * evals)) @ vecs.conj().T


def oracle_unitaries(shape: SystemShape, angles) -> tuple[np.ndarray, np.ndarray]:
    """Dense (U_d, U_0) at angles (lam, g_s, g_c), built from explicit
    operator sums."""
    lam, g_s, g_c = angles
    qubit, central = spin_matrices(1), spin_matrices(shape.two_s)
    sat_identity = np.eye(1 << shape.n_sat)
    h_kick = g_c * np.kron(sat_identity, central.sz)
    sxc = np.kron(sat_identity, central.sx)
    h_int = np.zeros((shape.dim, shape.dim), dtype=complex)
    for i in range(shape.n_sat):
        h_kick = h_kick + g_s * _site_operator(shape, i, qubit.sz)
        h_int = h_int + _site_operator(shape, i, qubit.sx) @ sxc
    return _expm_hermitian(h_kick, -1j), _expm_hermitian(h_int, 1j * lam)


def oracle_evolve(shape: SystemShape, angles, amps: np.ndarray,
                  n_periods: int) -> np.ndarray:
    """amps after n_periods periods of dense matrix products at angles
    (lam, g_s, g_c)."""
    u_d, u_0 = oracle_unitaries(shape, angles)
    step = u_0 @ u_d
    for _ in range(n_periods):
        amps = step @ amps
    return amps


def u_squared_class(n_sat: int, two_s: int) -> str:
    """Parity class of U^2 at lambda = 2pi: revival_both,
    satellite_rotation_only, central_rotation_only or both_rotate."""
    odd_sat, half_integer = n_sat % 2 == 1, two_s % 2 == 1
    if odd_sat and half_integer:
        return "revival_both"
    if odd_sat:
        return "satellite_rotation_only"
    if half_integer:
        return "central_rotation_only"
    return "both_rotate"


def two_period_residual_phases(shape: SystemShape, angles) -> np.ndarray:
    """Diagonal of the residual z rotation U^2 reduces to at lambda = 2pi
    and angles (lam, g_s, g_c): exp(-2i g_s S_i^z) on the satellites and/or
    exp(-2i g_c S_c^z) on the central spin, as u_squared_class says,
    identity on a protected one."""
    _, g_s, g_c = angles
    label = u_squared_class(shape.n_sat, shape.two_s)
    m_sat, m_c = _magnetic_numbers(shape)
    g_s = g_s if label in ("satellite_rotation_only", "both_rotate") else 0.0
    g_c = g_c if label in ("central_rotation_only", "both_rotate") else 0.0
    return np.exp(-2j * (g_s * m_sat[:, None] + g_c * m_c)).reshape(-1)
