import math

import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.spin_algebra import spin_matrices, x_eigenbasis, coherent_axis_state


def test_spin_half_matrices():
    ops = spin_matrices(1)
    np.testing.assert_allclose(ops.sz, np.diag([0.5, -0.5]), atol=1e-15)
    np.testing.assert_allclose(ops.sx, [[0, 0.5], [0.5, 0]], atol=1e-15)


def test_spin_two_sz_diagonal():
    ops = spin_matrices(4)
    np.testing.assert_allclose(ops.sz, np.diag([2, 1, 0, -1, -2]), atol=1e-15)


def test_spin_two_sx_ladder_entry():
    # row m=2, col m=1: sqrt(s(s+1) - m(m-1))/2 with s=2, m=2 gives 1
    ops = spin_matrices(4)
    assert ops.sx[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_invalid_two_s_rejected():
    for bad in (0, -1, 1.5):
        with pytest.raises(ShapeError):
            spin_matrices(bad)
        with pytest.raises(ShapeError):
            coherent_axis_state(bad, "x", "+")


@pytest.mark.parametrize("two_s", range(1, 13))
def test_algebra_invariants(two_s):
    ops = spin_matrices(two_s)
    s = two_s / 2.0
    for m in (ops.sx, ops.sy, ops.sz):
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    comm = ops.sx @ ops.sy - ops.sy @ ops.sx
    np.testing.assert_allclose(comm, 1j * ops.sz, atol=1e-10)
    comm = ops.sy @ ops.sz - ops.sz @ ops.sy
    np.testing.assert_allclose(comm, 1j * ops.sx, atol=1e-10)
    comm = ops.sz @ ops.sx - ops.sx @ ops.sz
    np.testing.assert_allclose(comm, 1j * ops.sy, atol=1e-10)
    casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    np.testing.assert_allclose(casimir, s * (s + 1) * np.eye(two_s + 1), atol=1e-10)


def test_x_basis_spin_half():
    v = x_eigenbasis(1)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(v, [[r, r], [r, -r]], atol=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 3, 5, 8])
def test_eigenbasis_diagonalizes(two_s):
    v = x_eigenbasis(two_s)
    s = two_s / 2.0
    np.testing.assert_allclose(v.T @ v, np.eye(two_s + 1), atol=1e-12)
    np.testing.assert_allclose(v.T @ spin_matrices(two_s).sx @ v,
                               np.diag(s - np.arange(two_s + 1)), atol=1e-12)


def test_eigenbasis_phase_convention():
    for two_s in (1, 2, 5):
        v = x_eigenbasis(two_s)
        for col in range(two_s + 1):
            assert v[np.argmax(np.abs(v[:, col]) > 1e-12), col] > 0


def test_x_eigenbasis_is_real():
    # eigh of the real S^x: the Fisher walk's real products take the basis
    # as it is
    for two_s in [*range(1, 201), 1000]:
        assert x_eigenbasis(two_s).dtype == np.float64, two_s


def test_coherent_plus_x_spin_half():
    st = coherent_axis_state(1, "x", "+")
    np.testing.assert_allclose(st, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_coherent_minus_y_spin_half():
    st = coherent_axis_state(1, "y", "-")
    target = np.array([1, -1j]) / np.sqrt(2)
    overlap = abs(np.vdot(target, st))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_coherent_expectation_extremal(two_s, axis, sign):
    ops = spin_matrices(two_s)
    op = {"x": ops.sx, "y": ops.sy, "z": ops.sz}[axis]
    a = coherent_axis_state(two_s, axis, sign)
    want = (1 if sign == "+" else -1) * two_s / 2.0
    assert np.vdot(a, op @ a).real == pytest.approx(want, abs=1e-12)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_coherent_y_binomial_expansion_in_x_basis(sign):
    # |+-s>^y expanded over x eigenstates carries coefficients
    # (-+i)^l * sqrt(binom(2s, l)) up to global phase; the plain-binomial
    # variant (without the square root) is not normalizable to this state
    two_s = 5
    vx = x_eigenbasis(two_s)
    coeffs = vx.conj().T @ coherent_axis_state(two_s, "y", sign)
    from math import comb
    unit = -1j if sign == "+" else 1j
    expect = np.array([unit ** l * np.sqrt(comb(two_s, l)) for l in range(two_s + 1)])
    expect = expect / np.linalg.norm(expect)
    assert abs(np.vdot(expect, coeffs)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("two_s", [80, 81, 200])
@pytest.mark.parametrize("axis,sign,p", [("x", "+", 1), ("x", "-", -1),
                                         ("y", "+", 1j), ("y", "-", -1j)],
                         ids=["+x", "-x", "+y", "-y"])
def test_coherent_state_has_closed_form_phases(two_s, axis, sign, p):
    # amplitude k is sqrt(C(2s, k)) 2^(-s) p^k, here from log-gamma, a path
    # independent of the integer recurrence, at sizes where 2^(-s) is below
    # 1e-12 (an eigenbasis phase rule with that cutoff turned these states
    # by -1, -i or +i)
    from math import lgamma, log
    k = np.arange(two_s + 1)
    log_binomial = np.array([lgamma(two_s + 1) - lgamma(j + 1) - lgamma(two_s - j + 1)
                             for j in k])
    closed = np.exp(log_binomial / 2 - two_s / 2 * log(2)) * p ** (k % 4)
    overlap = np.vdot(closed, coherent_axis_state(two_s, axis, sign))
    assert abs(overlap - 1) < 1e-12


@pytest.mark.parametrize("axis,sign,p", [("x", "+", 1), ("x", "-", -1),
                                         ("y", "+", 1j), ("y", "-", -1j)],
                         ids=["+x", "-x", "+y", "-y"])
def test_coherent_state_is_the_closed_form_bitwise(axis, sign, p):
    # sqrt(C(2s, k) / 2^(2s)) p^k, every amplitude to the last bit
    for two_s in [*range(1, 65), 1000]:
        want = np.array([math.sqrt(math.comb(two_s, k) / 2 ** two_s) * p ** (k % 4)
                         for k in range(two_s + 1)], dtype=complex)
        got = coherent_axis_state(two_s, axis, sign)
        assert got.dtype == complex and np.array_equal(got, want), two_s


@pytest.mark.parametrize("axis,sign", [("x", "+"), ("x", "-"), ("y", "+"),
                                       ("y", "-"), ("z", "+"), ("z", "-")])
def test_coherent_state_normalized_at_the_largest_spin(axis, sign):
    # 2s = 8191, the largest satellite count a CollectiveShape holds
    a = coherent_axis_state(8191, axis, sign)
    assert a.shape == (8192,) and abs(np.linalg.norm(a) - 1) < 1e-12


def test_coherent_state_rejects_bad_axis_and_sign():
    with pytest.raises(ShapeError):
        coherent_axis_state(2, "w", "+")
    with pytest.raises(ShapeError):
        coherent_axis_state(2, "x", "0")
