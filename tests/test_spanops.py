"""Closure, singular blocks, and hom spaces over module columns."""

from fractions import Fraction

import pytest

from superw.errors import NonBasisElementError, RankMismatchError
from superw.glmodules import (gl_conatural, gl_dual, gl_natural, gl_simple,
                              gl_trivial)
from superw.induction import kac_plus
from superw.linalg import DEFAULT_PRIME, RationalEchelon
from superw.modules import (adjoint_module, dual_module, lambda_module,
                            local_terms, quotient_module, singular_vectors,
                            submodule_generated)
from superw.spanops import (apply_gen, burnside_full, hom_basis, hom_space,
                            hom_value, module_closure, restricted_action,
                            singular_blocks)
from superw.tensorfields import tensor_field
from superw.walgebra import (BorelOrder, nilradical_generating_terms,
                             raising_terms)
from superw.weights import Weight


def test_closure_from_constants_is_one_dimensional():
    m = lambda_module(3)
    ech = module_closure(m, local_terms(3), [{0: Fraction(1)}])
    assert ech.dim == 1


def test_closure_from_generator_is_everything():
    m = lambda_module(3)
    ech = module_closure(m, local_terms(3), [{1: Fraction(1)}])  # xi1
    assert ech.dim == m.dim


def test_closure_mod_p_shortcut_agrees():
    m = lambda_module(3)
    exact = module_closure(m, local_terms(3), [{7: Fraction(1)}])
    shadow = module_closure(m, local_terms(3), [{7: 1}], p=DEFAULT_PRIME)
    assert exact.dim == shadow.dim == m.dim


def test_singular_lines_of_the_exterior_module():
    m = lambda_module(3)
    b = BorelOrder("natural", 3, "max")
    sing = singular_blocks(m, nilradical_generating_terms(b))
    weights = {key[0] for key in sing}
    assert weights == {Weight.zero(),
                       Weight(((1, 1), (2, 1), (3, 1)))}
    assert all(len(vs) == 1 for vs in sing.values())


def test_singular_block_filter():
    m = lambda_module(3)
    b = BorelOrder("natural", 3, "max")
    sing = singular_blocks(m, nilradical_generating_terms(b),
                           block_filter=lambda key: key[0].is_zero())
    assert {key[0] for key in sing} == {Weight.zero()}


def _exterior_mod_constants():
    m = lambda_module(3)
    return quotient_module(m, submodule_generated(m, [{0: Fraction(1)}]))


def _span(vecs) -> RationalEchelon:
    ech = RationalEchelon()
    for v in vecs:
        ech.insert(v)
    return ech


@pytest.mark.parametrize("order", [BorelOrder("natural", 3, "max"),
                                   BorelOrder("interleaved", 3, "min")],
                         ids=["natural-max", "interleaved-min"])
@pytest.mark.parametrize("build", [
    _exterior_mod_constants,
    lambda: kac_plus(gl_simple((), (1,), 3), 3),
    lambda: tensor_field(gl_natural(3), 3),
], ids=["Lambda/1", "K+(|1)", "T(V)"])
def test_singular_vectors_match_all_raising_operators(build, order):
    # singular_vectors applies only a generating subset of the nilradical;
    # the joint kernel over every raising operator is the reference
    m = build()
    fast = singular_vectors(m, order)
    full = singular_blocks(m, raising_terms(order))
    assert fast.keys() == full.keys()
    assert fast
    for key, vecs in full.items():
        a, b = _span(fast[key]), _span(vecs)
        assert a.dim == b.dim == len(fast[key]) == len(vecs)
        assert all(a.contains(v) for v in vecs)
        assert all(b.contains(v) for v in fast[key])


def test_burnside_detects_simplicity():
    full = lambda_module(2)
    assert not burnside_full(full, local_terms(2))
    from superw.modules import quotient_module, submodule_generated
    q = quotient_module(full, submodule_generated(full, [{0: Fraction(1)}]))
    assert burnside_full(q, local_terms(2))


def test_endomorphisms_of_indecomposable():
    m = lambda_module(3)
    homs = hom_basis(m, m, local_terms(3))
    assert len(homs) == 1
    phi = homs[0]
    v = {3: Fraction(2)}   # a middle basis vector
    out = hom_value(phi, v)
    # the unique endomorphism is a scalar
    assert list(out) == [3]


def test_hom_between_module_and_dual_is_empty():
    m = adjoint_module(2)
    assert hom_basis(m, dual_module(lambda_module(2)), local_terms(2)) == []


@pytest.mark.parametrize("base", [
    lambda: gl_trivial(3), lambda: gl_natural(3), lambda: gl_conatural(3),
    lambda: gl_simple((1,), (1,), 3)], ids=["C", "V", "V*", "V(1|1)"])
def test_duality_homs_are_exact_intertwiners(base):
    # the pair of modules that coinduction_duality_check compares at n=3
    x = base()
    t = tensor_field(x, 3)
    k = dual_module(kac_plus(gl_dual(x), 3))
    homs = hom_basis(t, k, local_terms(3))
    assert len(homs) == 1
    (phi,) = homs
    for g in local_terms(3):
        for j in range(t.dim):
            e = {j: Fraction(1)}
            assert hom_value(phi, apply_gen(t, g, e)) == apply_gen(k, g, hom_value(phi, e))


def test_restricted_action_rejects_mixed_weights_and_open_spans():
    m = lambda_module(2)
    mixed = RationalEchelon()
    mixed.insert({0: 1, 1: 1})
    with pytest.raises(NonBasisElementError):
        restricted_action(m, mixed)
    # x1 spans no submodule: d1 sends it to the constant 1
    x1 = RationalEchelon()
    x1.insert({1: 1})
    _weights, col = restricted_action(m, x1)
    with pytest.raises(NonBasisElementError):
        col((0, 1), 0)


def test_hom_space_rejects_rank_mismatch():
    with pytest.raises(RankMismatchError):
        hom_space(gl_natural(2), gl_natural(3))
    with pytest.raises(RankMismatchError):
        hom_space(lambda_module(2), lambda_module(3))
