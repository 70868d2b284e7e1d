import numpy as np
import pytest

from spindtc.errors import ShapeError, CapacityError
from spindtc.spin_algebra import coherent_axis_state
from spindtc.hilbert import (CollectiveShape, x_polarized_state,
                             reduced_central_density, von_neumann_entropy)

from qubit_reference import SystemShape, product_state, x_polarized


def test_shape_validation():
    with pytest.raises(ShapeError):
        CollectiveShape(0, 1)
    with pytest.raises(ShapeError):
        CollectiveShape(2, 0)
    with pytest.raises(CapacityError):
        CollectiveShape(1, 8192)
    # a size that is not an integer is refused at construction, before it
    # can give fractional dims
    for n_sat, two_s in ((2.5, 1), (2, 1.5), (2.0, 1), (2, np.float64(3))):
        with pytest.raises(ShapeError):
            CollectiveShape(n_sat, two_s)
    assert CollectiveShape(np.int64(2), np.int32(3)).dims == (3, 4)


def test_collective_shape():
    sh = CollectiveShape(41, 5)
    assert (sh.dims, sh.central_dim, sh.s) == ((42, 6), 6, 2.5)
    # the bound is the dense (n_sat+1)^2 satellite rotation, not 2^n_sat
    CollectiveShape(8191, 1)
    with pytest.raises(CapacityError):
        CollectiveShape(8192, 1)


def test_collective_x_polarized_is_symmetric_product():
    # |+x>^n on the Dicke ladder: 2^(-n/2) sqrt(C(n, k)) for k down spins
    from math import comb
    sh = CollectiveShape(6, 2)
    st = x_polarized_state(sh)
    assert st.shape == (7, 3)
    sat = np.array([np.sqrt(comb(6, k)) for k in range(7)]) / 8.0
    central = coherent_axis_state(2, "x", "+")
    np.testing.assert_allclose(st, np.outer(sat, central), atol=1e-14)


def test_shape_properties():
    sh = CollectiveShape(3, 5)
    assert sh.central_dim == 6
    assert sh.dims == (4, 6)
    assert sh.s == 2.5


# the 2^n reference's product states, which the collective layout is
# checked against

def test_product_state_uniform_x():
    sh = SystemShape(2, 1)
    assert np.allclose(np.abs(x_polarized(sh)), 1 / np.sqrt(8), atol=1e-12)


def test_product_state_z_basis_vector():
    sh = SystemShape(3, 4)
    up = np.array([1.0, 0.0])
    central = np.array([1.0, 0, 0, 0, 0])
    want = np.zeros(sh.dim)
    want[0] = 1.0
    np.testing.assert_allclose(product_state([up] * 3, central), want, atol=1e-12)


def test_product_state_y_phases():
    # all |+y> satellites: amplitude of bitstring k is (i^popcount)/norm
    plus_y = coherent_axis_state(1, "y", "+")
    central = coherent_axis_state(1, "z", "+")
    amps = product_state([plus_y] * 3, central)
    for k in range(8):
        a = amps[2 * k]     # central level 0
        # global phase free: compare against the k=0 amplitude
        ratio = a / amps[0]
        assert ratio == pytest.approx(1j ** bin(k).count("1"), abs=1e-12)
        assert abs(a) == pytest.approx(1 / np.sqrt(8), abs=1e-12)


def test_x_polarized_small():
    st = x_polarized_state(CollectiveShape(1, 1))
    np.testing.assert_allclose(np.abs(st), 0.5, atol=1e-12)


def test_inner_and_fidelity():
    sh = CollectiveShape(2, 2)
    a = x_polarized_state(sh)
    assert np.vdot(a, a) == pytest.approx(1.0, abs=1e-12)
    minus = np.outer(coherent_axis_state(2, "x", "-"),
                     coherent_axis_state(2, "x", "-"))
    assert abs(np.vdot(a, minus)) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert abs(np.vdot(a, a * np.exp(0.7j))) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_of_product_is_pure():
    sh = CollectiveShape(4, 3)
    rho = reduced_central_density(x_polarized_state(sh))
    assert rho.shape == (4, 4)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_random_states():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_sat = int(rng.integers(1, 7))
        two_s = int(rng.integers(1, 6))
        sh = CollectiveShape(n_sat, two_s)
        v = rng.normal(size=sh.dims) + 1j * rng.normal(size=sh.dims)
        v /= np.linalg.norm(v)
        rho = reduced_central_density(v)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-10
        ent = von_neumann_entropy(rho)
        assert -1e-12 <= ent <= np.log(min(n_sat + 1, two_s + 1)) + 1e-10


def test_entropy_values():
    assert von_neumann_entropy(np.diag([0.5, 0.5]).astype(complex)) \
        == pytest.approx(np.log(2), abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.25, 0.25]).astype(complex)) \
        == pytest.approx(1.5 * np.log(2), abs=1e-12)
    with pytest.raises(ShapeError):
        von_neumann_entropy(np.array([[1, 1j], [1j, 0]]))


def test_entropy_check_on_stacks():
    # the recorded columns skip the Hermiticity check, which stays on the
    # public function: one non-Hermitian matrix in a stack raises, and on
    # the reduced densities the program builds both give the same numbers
    from spindtc.observables import trajectory_columns
    rng = np.random.default_rng(11)
    sh = CollectiveShape(8, 4)
    v = rng.normal(size=(6,) + sh.dims) + 1j * rng.normal(size=(6,) + sh.dims)
    stack = v / np.linalg.norm(v, axis=(-2, -1), keepdims=True)
    rho = reduced_central_density(stack)
    np.testing.assert_array_equal(trajectory_columns(stack)[2],
                                  von_neumann_entropy(rho))
    skewed = rho.copy()
    skewed[3, 0, 1] += 1e-3
    with pytest.raises(ShapeError):
        von_neumann_entropy(skewed)
