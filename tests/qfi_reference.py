"""Exact quantum Fisher matrix by tangent propagation through dense unitaries.

Shared test reference for `metrology.qfi_scan`. It uses neither the
metrology module nor the matrix-free engine. exact_qfi works on the 2^n
layout; exact_collective_qfi on two collective spins, which reaches n_sat in
the hundreds. In exact_qfi the period unitary
U = U_0 U_d, with U_d = exp(-i g K) and U_0 = exp(i lambda H_int), is built
densely from Kronecker sums over N satellite qubits (x) the central spin,

    K = J^z_sat (x) 1 + 1 (x) S^z_c,        H_int = J^x_sat (x) S^x_c,

and the state is propagated together with its two exact parameter
derivatives, using d_lambda U = i H_int U and d_g U = U_0 (-i K) U_d:

    d psi_{n+1} = U d psi_n + (d U) psi_n.

The elements are F_ab = 4 Re[<d_a psi|d_b psi> - <d_a psi|psi><psi|d_b psi>]
(Braunstein & Caves, PRL 72, 3439 (1994)); there is no step size, so the
values are exact up to rounding.
"""

from dataclasses import dataclass

import numpy as np

from spindtc.spin_algebra import spin_matrices


@dataclass(frozen=True)
class ExactQfi:
    f_ll: float
    f_gg: float
    f_lg: float

    @property
    def scale(self) -> float:
        return max(abs(self.f_ll), abs(self.f_gg))

    @property
    def gain(self) -> float:
        """det(F) / tr(F), the sensing gain."""
        return ((self.f_ll * self.f_gg - self.f_lg ** 2)
                / (self.f_ll + self.f_gg))


def _kron_sum(n_sat: int, op2: np.ndarray) -> np.ndarray:
    """sum_i 1 (x) ... (x) op2 (site i) (x) ... (x) 1 over n_sat qubits."""
    total = np.zeros((1 << n_sat, 1 << n_sat), dtype=complex)
    for i in range(n_sat):
        total += np.kron(np.eye(1 << (n_sat - 1 - i)),
                         np.kron(op2, np.eye(1 << i)))
    return total


def exact_qfi(n_sat: int, two_s: int, lam: float, g: float,
              n_periods: int) -> ExactQfi:
    """Exact Fisher matrix of the x-polarized start after n_periods."""
    qubit, central = spin_matrices(1), spin_matrices(two_s)
    jx = _kron_sum(n_sat, qubit.sx)
    jz = np.real(np.diag(_kron_sum(n_sat, qubit.sz)))
    k_diag = np.add.outer(jz, np.real(np.diag(central.sz))).ravel()
    h_int = np.kron(jx, central.sx)

    # H_int is diagonal in the product of the factors' x eigenbases
    ev_sat, vec_sat = np.linalg.eigh(jx)
    ev_c, vec_c = np.linalg.eigh(central.sx)
    vecs = np.kron(vec_sat, vec_c)
    u_0 = (vecs * np.exp(1j * lam * np.outer(ev_sat, ev_c).ravel())) @ vecs.conj().T
    u_d = np.exp(-1j * g * k_diag)
    u = u_0 * u_d[None, :]

    # eigh orders ascending, so the last columns are the +x extremal states
    psi = np.kron(vec_sat[:, -1], vec_c[:, -1]).astype(complex)
    d_l = np.zeros_like(psi)
    d_g = np.zeros_like(psi)
    for _ in range(n_periods):
        kicked = u_d * psi
        psi_next = u_0 @ kicked
        d_l = u @ d_l + 1j * (h_int @ psi_next)
        d_g = u @ d_g + u_0 @ (-1j * k_diag * kicked)
        psi = psi_next

    def element(a, b):
        return 4.0 * float(np.real(np.vdot(a, b) - np.vdot(a, psi) * np.vdot(psi, b)))

    return ExactQfi(element(d_l, d_l), element(d_g, d_g), element(d_l, d_g))


def _spin_x_and_z(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """J^x (dense, real) and the J^z diagonal, z basis ordered m = j, .., -j."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    # <m+1| J+ |m> sits one row above the column of m
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    return (np.diag(ladder, 1) + np.diag(ladder, -1)) / 2.0, m


def exact_collective_qfi(n_sat: int, two_s: int, lam: float, g: float,
                         n_periods: int) -> ExactQfi:
    """exact_qfi on the permutation-symmetric subspace: the satellites as one
    spin J = n_sat/2 (Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987)), so
    the dense unitaries are (n_sat + 1)(2s + 1) square. It builds its own
    spin matrices and shares no code with spindtc."""
    jx, jz = _spin_x_and_z(n_sat)
    sx, sz = _spin_x_and_z(two_s)
    k_diag = np.add.outer(jz, sz).ravel()
    h_int = np.kron(jx, sx)
    ev_j, vec_j = np.linalg.eigh(jx)
    ev_s, vec_s = np.linalg.eigh(sx)
    vecs = np.kron(vec_j, vec_s)
    u_0 = (vecs * np.exp(1j * lam * np.outer(ev_j, ev_s).ravel())) @ vecs.T
    u_d = np.exp(-1j * g * k_diag)
    u = u_0 * u_d[None, :]

    # eigh sorts ascending: the last columns are the +x extremal states
    psi = np.kron(vec_j[:, -1], vec_s[:, -1]).astype(complex)
    d_l = np.zeros_like(psi)
    d_g = np.zeros_like(psi)
    for _ in range(n_periods):
        kicked = u_d * psi
        psi_next = u_0 @ kicked
        d_l = u @ d_l + 1j * (h_int @ psi_next)
        d_g = u @ d_g + u_0 @ (-1j * k_diag * kicked)
        psi = psi_next

    def element(a, b):
        return 4.0 * float(np.real(np.vdot(a, b) - np.vdot(a, psi) * np.vdot(psi, b)))

    return ExactQfi(element(d_l, d_l), element(d_g, d_g), element(d_l, d_g))
