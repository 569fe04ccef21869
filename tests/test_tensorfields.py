"""Tensor-field modules, their distinguished submodules, and duality."""

import pytest

from superw.errors import RankMismatchError
from superw.glmodules import gl_conatural, gl_natural, gl_simple, gl_trivial
from superw.modules import (adjoint_module, check_representation, is_simple,
                            lambda_module)
from superw.spanops import iso_check
from superw.tensorfields import (coinduction_duality_check, extract_L_minus,
                                 tensor_field)
from superw.walgebra import basis_terms
from superw.weights import Weight

from helpers import convolve, tensor_field_oracle


def test_tensor_field_satisfies_the_bracket_relation():
    for n in (2, 3):
        assert check_representation(tensor_field(gl_conatural(n), n)) == []


def test_action_splits_into_coefficient_and_contraction():
    t = tensor_field(gl_conatural(2), 2)
    # basis f (x) v at f * 2 + v, coefficients 1, x1, x2, x1x2 over f_1, f_2
    e1, e2 = Weight.eps(1), Weight.eps(2)
    assert t.weights == [-e1, -e2, Weight.zero(), e1 - e2,
                         e2 - e1, Weight.zero(), e2, e1]
    # coefficient part moves x2 (x) f_1 to x1 (x) f_1, contraction rotates
    # the base
    assert t.column((1, 2), 4) == {2: 1, 5: -1}
    assert t.column((1, 2), 0) == {1: -1}
    assert t.column((2, 1), 1) == {0: -1}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("base", [
    gl_trivial, gl_natural, gl_conatural,
    lambda n: gl_simple((1,), (1,), n)], ids=["C", "V", "V*", "V(1|1)"])
def test_columns_match_the_two_call_sign_builder(base, n):
    # one popcount per hit against removal_sign times merge_sign: the same
    # items, in the same order, for every basis term on every basis vector
    x = base(n)
    t, want = tensor_field(x, n), tensor_field_oracle(x, n)
    assert t.weights == want.weights
    for term in basis_terms(n):
        for j in range(t.dim):
            assert list(t.column(term, j).items()) == list(want.column(term, j).items())


def test_trivial_coefficients_recover_scalars():
    assert iso_check(tensor_field(gl_trivial(3), 3), lambda_module(3)) is not None


@pytest.mark.parametrize("n", [2, 3])
def test_covector_coefficients_recover_the_adjoint(n):
    t = tensor_field(gl_conatural(n), n)
    assert iso_check(t, adjoint_module(n)) is not None


def test_duality_with_downward_induction():
    rep = coinduction_duality_check(gl_natural(2), 2)
    assert rep.passes and rep.dim == 8
    assert rep.intertwiner is not None


def test_extracted_scalars_mod_constants():
    for n in (3, 4):
        m = extract_L_minus((1,), (), n)
        assert m.dim == (1 << n) - 1
        assert m.meta["highest_weight"] == Weight.eps(1)
        assert m.dim < tensor_field(gl_natural(n), n).dim


def test_extracted_adjoint_fills_the_ambient_module():
    for n in (2, 3):
        m = extract_L_minus((), (1,), n)
        assert m.dim == n * (1 << n)
        assert m.meta["highest_weight"] == -Weight.eps(2)
        assert m.dim == tensor_field(gl_conatural(n), n).dim
        assert iso_check(m, adjoint_module(n)) is not None


def test_simplicity_of_full_tensor_fields():
    def simple(lam, mu, n):
        return is_simple(tensor_field(gl_simple(lam, mu, n, order="interleaved"), n)).simple

    assert simple((1,), (1,), 4)
    assert not simple((2,), (), 4)
    assert simple((), (1,), 3)


@pytest.mark.parametrize("n", [3, 4])
def test_mixed_pair_character_sits_under_the_product(n):
    # multiplication Lambda/C (x) W -> L((1)|(1)) is onto, so the character
    # of the target is dominated by the convolution
    a = extract_L_minus((1,), (1,), n).character()
    conv = convolve(extract_L_minus((1,), (), n).character(),
                    extract_L_minus((), (1,), n).character())
    assert all(conv.entries.get(k, 0) >= v for k, v in a.entries.items())


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        tensor_field(gl_natural(2), 3)
