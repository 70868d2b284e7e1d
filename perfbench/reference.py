"""Independent reference: two collective spins propagated densely.

The satellites are identical spin-1/2s, the drive treats them identically and
every workload starts from the x-polarized product, so the state never leaves
the permutation-symmetric subspace. There the satellites act as a single spin
J = n_sat/2 (the kicked-top reduction of Haake, Kus & Scharf, Z. Phys. B 65,
381 (1987)), and the system is two spins of dimension
(n_sat + 1)(2s + 1). This module builds its own spin matrices and period
unitary U = U_0 U_d with

    U_d = exp(-i g K),          K     = J^z (x) 1 + 1 (x) S^z,
    U_0 = exp(i lambda H_int),  H_int = J^x (x) S^x,

and imports nothing from `spindtc`, so it shares no code with the program's
2^n engine, its observables or its finite-difference Fisher estimator.
"""

from dataclasses import dataclass

import numpy as np

ENTROPY_EIGENVALUE_FLOOR = 1e-14   # eigenvalues at or below carry no entropy


def spin_x_and_z(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """J^x (dense, real) and the J^z diagonal, z basis ordered m = j, j-1, .., -j."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    # <m+1| J+ |m> sits one row above the column of m
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jx = (np.diag(ladder, 1) + np.diag(ladder, -1)) / 2.0
    return jx, m


@dataclass(frozen=True)
class TwoSpinSystem:
    """Period unitary and operators of the collective (J, S) system."""

    n_sat: int
    two_s: int
    u_d: np.ndarray       # diagonal of U_d
    u_0: np.ndarray       # dense U_0
    k_diag: np.ndarray    # diagonal of K
    h_int: np.ndarray     # dense H_int
    jx: np.ndarray
    sx: np.ndarray
    initial: np.ndarray   # |J, +x> (x) |s, +x>

    @property
    def step(self) -> np.ndarray:
        return self.u_0 * self.u_d[None, :]


def build(n_sat: int, two_s: int, lam: float, g: float) -> TwoSpinSystem:
    jx, jz = spin_x_and_z(n_sat)
    sx, sz = spin_x_and_z(two_s)
    k_diag = np.add.outer(jz, sz).ravel()
    ev_j, vec_j = np.linalg.eigh(jx)
    ev_s, vec_s = np.linalg.eigh(sx)
    vecs = np.kron(vec_j, vec_s)
    u_0 = (vecs * np.exp(1j * lam * np.outer(ev_j, ev_s).ravel())) @ vecs.T
    # eigh sorts ascending: the last columns are the +x extremal states
    initial = np.kron(vec_j[:, -1], vec_s[:, -1]).astype(complex)
    return TwoSpinSystem(n_sat=n_sat, two_s=two_s,
                         u_d=np.exp(-1j * g * k_diag), u_0=u_0, k_diag=k_diag,
                         h_int=np.kron(jx, sx), jx=jx, sx=sx, initial=initial)


@dataclass(frozen=True)
class Trajectory:
    """Per-period observables for n = 1..periods (index n - 1)."""

    m_sat_x: np.ndarray
    m_c_x: np.ndarray
    entropy: np.ndarray
    fidelity: np.ndarray

    def columns(self) -> np.ndarray:
        """(periods, 4) array in the order of the program's trajectory CSV."""
        return np.column_stack([self.m_sat_x, self.m_c_x, self.entropy,
                                self.fidelity])


def _entropy(rho: np.ndarray) -> float:
    p = np.linalg.eigvalsh(rho)
    p = p[p > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(p * np.log(p)))


def trajectory(n_sat: int, two_s: int, lam: float, g: float,
               periods: int) -> Trajectory:
    sys_ = build(n_sat, two_s, lam, g)
    step = sys_.step
    a, b = n_sat + 1, two_s + 1
    psi = sys_.initial.copy()
    cols = np.zeros((4, periods))
    for n in range(periods):
        psi = step @ psi
        mat = psi.reshape(a, b)
        cols[0, n] = np.real(np.vdot(mat, sys_.jx @ mat)) / n_sat
        cols[1, n] = np.real(np.vdot(mat, mat @ sys_.sx))
        # partial trace over the orthonormal Dicke basis of the satellites
        cols[2, n] = _entropy(mat.T @ mat.conj())
        cols[3, n] = abs(np.vdot(sys_.initial, psi)) ** 2
    return Trajectory(*cols)


def first_revival(traj: Trajectory, epsilon: float) -> int | None:
    """First period n with fidelity to the initial state above 1 - epsilon."""
    hits = np.nonzero(traj.fidelity > 1 - epsilon)[0]
    return int(hits[0]) + 1 if hits.size else None


def phase_map_point(n_sat: int, two_s: int, lam: float, g: float,
                    periods: int, stride: int) -> np.ndarray:
    """The six map values of one grid point, in the order of the CSV.

    avg_m_sat, avg_m_c: means over n = stride, 2 stride, .., (periods // stride)
    stride; avg_entropy: mean over n = 1..periods; o_rel: mean of
    ((-1)^n - 1) M(n) over n = 1..periods.
    """
    traj = trajectory(n_sat, two_s, lam, g, periods)
    n = np.arange(1, periods + 1)
    count = periods // stride
    sampled = n[stride - 1::stride][:count] - 1
    weights = ((-1.0) ** n - 1.0) / periods
    return np.array([traj.m_sat_x[sampled].mean(), traj.m_c_x[sampled].mean(),
                     traj.entropy.mean(), weights @ traj.m_sat_x,
                     weights @ traj.m_c_x])


@dataclass(frozen=True)
class Fisher:
    f_ll: float
    f_gg: float
    f_lg: float

    @property
    def scale(self) -> float:
        return max(abs(self.f_ll), abs(self.f_gg))

    @property
    def determinant(self) -> float:
        return self.f_ll * self.f_gg - self.f_lg ** 2

    @property
    def singular(self) -> bool:
        """Determinant zero at rounding level of the matrix scale."""
        return abs(self.determinant) <= 1e-9 * self.scale ** 2


def fisher(n_sat: int, two_s: int, lam: float, g: float,
           periods: int) -> Fisher:
    """Exact Fisher matrix by propagating the state and its exact tangents.

    d_lambda U = i H_int U and d_g U = U_0 (-i K) U_d, so
    d psi_{n+1} = U d psi_n + (d U) psi_n, with no step size.
    """
    sys_ = build(n_sat, two_s, lam, g)
    step = sys_.step
    psi = sys_.initial.copy()
    d_l = np.zeros_like(psi)
    d_g = np.zeros_like(psi)
    for _ in range(periods):
        kicked = sys_.u_d * psi
        nxt = sys_.u_0 @ kicked
        d_l = step @ d_l + 1j * (sys_.h_int @ nxt)
        d_g = step @ d_g + sys_.u_0 @ (-1j * sys_.k_diag * kicked)
        psi = nxt

    def element(x, y):
        return 4.0 * float(np.real(np.vdot(x, y)
                                   - np.vdot(x, psi) * np.vdot(psi, y)))

    return Fisher(element(d_l, d_l), element(d_g, d_g), element(d_l, d_g))


def self_check() -> list[str]:
    """Compare the reference with exact values the test suite pins.

    Returns a list of failures, empty when the reference is sound.
    """
    failures = []
    pins = (((4, 2, 12), (216.0, 144.0, 0.0)),
            ((6, 4, 48), (24192.0, 6912.0, 0.0)))
    for (n_sat, two_s, periods), want in pins:
        f = fisher(n_sat, two_s, np.pi, np.pi / 2, periods)
        got = (f.f_ll, f.f_gg, f.f_lg)
        if max(abs(x - y) for x, y in zip(got, want)) > 1e-6 * max(want):
            failures.append(f"fisher ({n_sat}, {two_s}/2) n={periods}: "
                            f"{got} != {want}")
    # closed-form milestones of (9, 5/2) at (pi, pi/2): a product of two GHZ
    # factors at 4T, the joint GHZ superposition at 6T
    traj = trajectory(9, 5, np.pi, np.pi / 2, 6)
    for n, want in ((4, 0.0), (6, np.log(2.0))):
        if abs(traj.entropy[n - 1] - want) > 1e-10:
            failures.append(f"entropy (9, 5/2) at {n}T: "
                            f"{traj.entropy[n - 1]} != {want}")
    return failures
