import numpy as np
import pytest

from spindtc.errors import ShapeError
from spindtc.spin_algebra import coherent_axis_state
from spindtc.hilbert import (CollectiveShape, x_polarized_state,
                             reduced_central_density, von_neumann_entropy)
from spindtc.floquet import precompute, evolve, to_x_basis
from spindtc.observables import magnetizations
from spindtc.analytic_states import (parity_case_of, supported_time_indices,
                                     milestone_state)

SPECIAL = (np.pi, np.pi / 2, np.pi / 2)     # (lambda, g_s, g_c)


def _product(sh, sign):
    """|sign x>^n_sat (x) |sign s>^x on the collective layout."""
    return np.outer(coherent_axis_state(sh.n_sat, "x", sign),
                    coherent_axis_state(sh.two_s, "x", sign))


def test_parity_case_of():
    assert parity_case_of(CollectiveShape(9, 4)) == "odd_int"
    assert parity_case_of(CollectiveShape(8, 5)) == "even_half"
    assert parity_case_of(CollectiveShape(9, 5)) == "odd_half"
    assert parity_case_of(CollectiveShape(8, 4)) == "even_int"


def test_supported_time_indices():
    assert supported_time_indices("odd_int") == (3, 6, 12)
    assert supported_time_indices("even_half") == (3, 6, 12)
    assert supported_time_indices("odd_half") == (1, 2, 3, 4, 5, 6, 12, 24)
    assert supported_time_indices("even_int") == (1, 2, 3, 4)
    with pytest.raises(ShapeError):
        supported_time_indices("even_quarter")


def test_bad_spec_rejected():
    # an unsupported time; the shape's parity case is worked out, not given
    sh = CollectiveShape(9, 5)
    with pytest.raises(ShapeError):
        milestone_state(sh, 7)
    with pytest.raises(ShapeError):
        milestone_state(CollectiveShape(8, 4), 6)


def test_all_milestones_normalized():
    for n_sat, two_s in ((9, 5), (8, 4), (9, 4), (8, 5), (5, 1), (6, 2)):
        sh = CollectiveShape(n_sat, two_s)
        case = parity_case_of(sh)
        for t in supported_time_indices(case):
            st = milestone_state(sh, t)
            assert st.shape == sh.dims
            assert abs(np.linalg.norm(st) - 1.0) < 1e-12


def test_quarter_period_ghz_structure():
    # (odd_half, 6): superposition of the all+x and all-x products, entropy ln 2
    sh = CollectiveShape(9, 5)
    st = milestone_state(sh, 6)
    plus, minus = _product(sh, "+"), _product(sh, "-")
    # equal weight on the two branches
    assert abs(np.vdot(plus, st)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert abs(np.vdot(minus, st)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    rho = reduced_central_density(st)
    assert von_neumann_entropy(rho) == pytest.approx(np.log(2), abs=1e-10)


def test_double_ghz_product_disentangled():
    sh = CollectiveShape(9, 5)
    st = milestone_state(sh, 4)
    assert von_neumann_entropy(reduced_central_density(st)) < 1e-10


def test_super_cat_entangled():
    # t=2 coefficients do not factorize across the central bipartition;
    # t=3 happens to ([1,-i,-i,-1] is a tensor square), so probe t=2 and t=6
    sh = CollectiveShape(9, 5)
    for t in (2, 6):
        st = milestone_state(sh, t)
        assert von_neumann_entropy(reduced_central_density(st)) > 0.1


@pytest.mark.parametrize("n_sat,two_s", [(9, 5), (8, 4), (9, 4), (8, 5),
                                         (5, 1), (6, 2), (7, 3), (4, 2),
                                         (5, 2), (6, 1), (10, 3), (7, 2)])
def test_milestone_fidelities_all_cases(n_sat, two_s):
    sh = CollectiveShape(n_sat, two_s)
    case = parity_case_of(sh)
    tables = precompute(sh, *SPECIAL)
    for t in supported_time_indices(case):
        st = x_polarized_state(sh)
        evolve(st, tables, t)
        f = abs(np.vdot(st, milestone_state(sh, t))) ** 2
        assert f >= 1 - 1e-8, (case, t, f)


def test_milestone_fidelities_at_large_n_sat():
    # every parity case and every (n_sat mod 4, 2s mod 4) key of the tables,
    # at every supported time: 72 milestones, each reached to 1e-12. The
    # coherent states' closed-form phases matter here: with the phase fixed
    # at the first amplitude above 1e-12, 6 of them read about 4e-29
    for n_sat in range(200, 204):
        for two_s in range(1, 5):
            sh = CollectiveShape(n_sat, two_s)
            case = parity_case_of(sh)
            tables = precompute(sh, *SPECIAL)
            for t in supported_time_indices(case):
                st = x_polarized_state(sh)
                evolve(st, tables, t)
                f = abs(np.vdot(st, milestone_state(sh, t))) ** 2
                assert f >= 1 - 1e-12, (n_sat, two_s, t, f)


def test_half_period_reversal():
    # odd_int and even_half at 6T, odd_half at 12T: all-(-x) product
    for n_sat, two_s, t in ((9, 4, 6), (8, 5, 6), (9, 5, 12)):
        sh = CollectiveShape(n_sat, two_s)
        case = parity_case_of(sh)
        st = milestone_state(sh, t)
        assert abs(np.vdot(st, _product(sh, "-"))) ** 2 \
            == pytest.approx(1.0, abs=1e-12)


def test_even_int_never_reverses_polarity():
    sh = CollectiveShape(8, 4)
    for t in supported_time_indices("even_int"):
        x = to_x_basis(milestone_state(sh, t), sh)
        assert magnetizations(x)[0] >= -1e-9


def test_fidelity_at_zero_interaction():
    # lambda=0 never builds the milestone; overlap is just the static one
    sh = CollectiveShape(9, 5)
    st = x_polarized_state(sh)
    evolve(st, precompute(sh, 0.0, np.pi / 2, np.pi / 2), 6)
    f = abs(np.vdot(st, milestone_state(sh, 6))) ** 2
    assert f < 0.999
