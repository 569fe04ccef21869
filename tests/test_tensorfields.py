"""Tensor-field modules, their distinguished submodules, and duality."""

import pytest

import superw.modules as mods
import superw.spanops as spanops
from superw.errors import RankMismatchError, RankTooSmallError
from superw.glmodules import gl_conatural, gl_natural, gl_simple, gl_trivial
from superw.induction import kac_plus
from superw.modules import (check_representation, dual_module, generates,
                            is_simple, iso_check, submodule_generated)
from superw.partitions import stable_highest_weight
from superw.spanops import module_closure
from superw.suite import PAIRS_LE2
from superw.tensorfields import (adjoint_module, coinduction_duality_check,
                                 extract_L_minus, lambda_module, tensor_field)
from superw.walgebra import (BorelOrder, WElement, basis_terms,
                             generating_terms, term_bracket, term_weight,
                             triangular_terms)
from superw.weights import Weight

from helpers import (GrassmannElement, convolve, direct_sum, duality_oracle,
                     extract_L_minus_oracle, iso_check_oracle,
                     tensor_field_oracle, w_apply_oracle)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lambda_columns_are_the_action_on_monomials(n):
    # Lambda(n) = T(C), x^f at index f: every column is the action of one
    # basis term on x^f, sign for sign, so a term dict {f: c} is its
    # vector
    m = lambda_module(n)
    assert m.weights == [Weight.from_dense(f >> i & 1 for i in range(n))
                         for f in range(1 << n)]
    for term in basis_terms(n):
        x = WElement(n, {term: 1})
        for f in range(1 << n):
            assert m.column(term, f) == w_apply_oracle(x, GrassmannElement({f: 1})).terms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_adjoint_columns_are_the_bracket(n):
    # W(n) = T(V*), x^a d_j at index a * n + j - 1: every column is the
    # bracket of two basis terms, sign for sign
    m = adjoint_module(n)
    terms = basis_terms(n)
    assert m.dim == len(terms)
    for a, j in terms:
        assert m.weights[a * n + j - 1] == term_weight((a, j))
    for t in terms:
        for a, j in terms:
            want = {b * n + l - 1: c
                    for (b, l), c in term_bracket({t: 1}, {(a, j): 1}).items()}
            assert m.column(t, a * n + j - 1) == want


@pytest.mark.parametrize("base,n,standard", [
    (gl_trivial, 3, lambda_module), (gl_conatural, 2, adjoint_module),
    (gl_conatural, 3, adjoint_module)], ids=["T(C)@3", "T(V*)@2", "T(V*)@3"])
def test_iso_check_on_the_standard_tensor_fields(base, n, standard):
    # iso_check against a second build of the same module: T(V*) = W(n) is
    # simple and gets its certificate; T(C) = Lambda(n) is not (the
    # constants are a submodule), which the highest-weight certificate
    # needs, so iso_check declines while the hom-space oracle finds one
    t, m = tensor_field(base(n), n), standard(n)
    if base is gl_trivial:
        assert iso_check_oracle(t, m) is not None
        with pytest.raises(ValueError, match="neither is simple"):
            iso_check(t, m)
    else:
        assert iso_check(t, m) is not None


def test_duality_with_downward_induction():
    rep = coinduction_duality_check(gl_natural(2), 2)
    assert rep.passes and rep.dim == 8
    assert rep.generator is not None


@pytest.mark.parametrize("base,n", [
    (gl_trivial, 3), (gl_natural, 3), (gl_conatural, 3),
    (lambda n: gl_simple((1,), (1,), n), 3),
    (lambda n: gl_simple((2,), (1,), n), 2),
    (lambda n: gl_simple((2,), (1,), n), 3),
    (lambda n: gl_simple((2,), (1,), n), 4)],
    ids=["C@3", "V@3", "V*@3", "V(1|1)@3", "V(2|1)@2", "V(2|1)@3", "V(2|1)@4"])
def test_duality_matches_the_hom_space_oracle(base, n):
    # the criterion-6 bases and V(2|1): Frobenius reciprocity against an
    # invertible intertwiner T(X) -> K+(X*)*; the generator is a vector of
    # T(X)* that generates it
    x = base(n)
    rep = coinduction_duality_check(x, n)
    assert rep.passes and duality_oracle(x, n) is not None
    assert rep.dim == (1 << n) * x.dim
    assert submodule_generated(dual_module(tensor_field(x, n)), [rep.generator]).full


def test_duality_rejects_a_base_that_is_not_simple():
    # V (+) C is no simple base: its dual has two singular lines
    x = direct_sum(gl_natural(3), gl_trivial(3))
    assert not is_simple(x).simple
    with pytest.raises(ValueError, match="needs a simple base"):
        coinduction_duality_check(x, 3)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_weights_equal_the_per_vector_sums(n):
    # vectors with equal X-weights share one sum object; the list equals
    # w_v + lift(f) taken vector by vector, for T(X) and for K+(X), whose
    # base X (x) det^-1 has every weight shifted by -(1,...,1)
    lifts = [Weight.from_dense(f >> i & 1 for i in range(n)) for f in range(1 << n)]
    det = Weight.from_dense([-1] * n)
    for lam, mu in PAIRS_LE2:
        if lam.length + mu.length > n:
            continue
        x = gl_simple(lam, mu, n)
        for m, shift in ((tensor_field(x, n), Weight()), (kac_plus(x, n), det)):
            assert m.weights == [w + shift + lift for lift in lifts for w in x.weights]


def _extractions():
    """The pairs of rank at most 2 a side at ranks 3 and 4, wherever the
    interleaved order fits them, and (1|1) at ranks 5 and 6."""
    out = []
    for n in (3, 4):
        for lam, mu in PAIRS_LE2:
            try:
                stable_highest_weight(lam, mu, "interleaved", n)
            except RankTooSmallError:
                continue
            out.append(pytest.param(lam, mu, n, id=f"({lam}|{mu})@{n}"))
    return out + [pytest.param((1,), (1,), n, id=f"((1)|(1))@{n}")
                  for n in (5, 6)]


@pytest.mark.parametrize("lam,mu,n", _extractions())
def test_extraction_matches_the_closure_oracle(lam, mu, n):
    # the generation test against the closure it replaced: the same full
    # or proper outcome, dimension and weights, and on a proper submodule
    # the same column of every generator on every basis vector
    got = extract_L_minus(lam, mu, n)
    sub = extract_L_minus_oracle(lam, mu, n)
    want = sub.module()
    assert (got.dim == sub.parent.dim) == sub.full
    assert got.dim == sub.dim and got.weights == want.weights
    if not sub.full:
        for g in generating_terms(n):
            for j in range(want.dim):
                assert list(got.column(g, j).items()) == list(want.column(g, j).items())
    # the verdict against the closure under the lowering set it counts on
    b = BorelOrder("interleaved", n, "min")
    hw = got.meta["highest_weight"]
    seed = sub.echelon.rows[sub.echelon.order[0]]
    _, lowering = triangular_terms(b)
    assert generates(sub.parent, hw, seed, b) == (
        module_closure(sub.parent, lowering, [seed]).dim == sub.parent.dim)


@pytest.mark.parametrize("lam,mu,n,closures", [((1,), (1,), 5, 0),
                                                ((2,), (), 4, 1)],
                         ids=["((1)|(1))@5", "((2)|())@4"])
def test_only_a_proper_extraction_closes_a_span(lam, mu, n, closures, monkeypatch):
    # L-(1|1) fills T at rank 5, which the generation test shows with no
    # closure; L-((2)|()) is proper, so its one closure runs.  The gl
    # simple's own closure, in glmodules, is not counted.
    calls = []
    closure = spanops.module_closure

    def counted(*args):
        calls.append(args[0])
        return closure(*args)

    for namespace in (mods, spanops):
        monkeypatch.setattr(namespace, "module_closure", counted)
    m = extract_L_minus(lam, mu, n)
    assert len(calls) == closures
    t = tensor_field(gl_simple(lam, mu, n, order="interleaved"), n)
    assert (m.dim == t.dim) == (closures == 0)


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        tensor_field(gl_natural(2), 3)
