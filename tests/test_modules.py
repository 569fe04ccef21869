"""Finite weight modules: constructions, characters, submodule
machinery and simplicity verdicts."""

from collections import Counter
from fractions import Fraction

import pytest

from superw import spanops
from superw.errors import NonBasisElementError
from superw.modules import (Character, adjoint_module, check_representation,
                            dual_module, is_simple, lambda_module,
                            psi_invariants, quotient_module, singular_line,
                            singular_vectors, submodule_generated,
                            tensor_module)
from superw.glmodules import gl_natural, gl_trivial, mixed_tensor
from superw.spanops import iso_check
from superw.tensorfields import extract_L_minus_submodule, tensor_field
from superw.walgebra import BorelOrder, basis_terms
from superw.weights import Weight

from helpers import (convolve, grading_element, restrict, trivial_module,
                     weight_of)


def test_builders_satisfy_the_bracket_relation():
    for m in (trivial_module(2), lambda_module(3), adjoint_module(2),
              dual_module(lambda_module(2)),
              tensor_module(lambda_module(2), trivial_module(2))):
        assert check_representation(m) == []


def test_weight_grading_is_the_z_grading():
    for m in (lambda_module(3), adjoint_module(3)):
        for i in range(m.dim):
            assert m.weights[i].total() == m.zdegs[i]


def test_grading_element_acts_by_degree():
    m = adjoint_module(3)
    e = grading_element(3)
    for i in range(m.dim):
        out = m.act(e, {i: Fraction(1)})
        want = {i: Fraction(m.zdegs[i])} if m.zdegs[i] else {}
        assert out == want


def test_exterior_module_has_unique_proper_submodule():
    m = lambda_module(3)
    sub = submodule_generated(m, [{0: Fraction(1)}])
    assert sub.dim == 1
    q = quotient_module(m, sub)
    assert q.dim == 7
    assert is_simple(q).simple
    v = is_simple(m)
    assert not v.simple
    assert v.witness is not None


def test_adjoint_closure_from_grading_element_is_full():
    # the grading element is central in degree zero but not invariant
    # under the odd parts, so it generates the whole adjoint
    m = adjoint_module(2)
    index = {t: j for j, t in enumerate(basis_terms(2))}
    seed = {index[t]: Fraction(c)
            for t, c in grading_element(2).terms.items()}
    sub = submodule_generated(m, [seed])
    assert sub.dim == m.dim


def test_dual_double_dual_round_trip():
    m = adjoint_module(2)
    assert iso_check(dual_module(dual_module(m)), m) is not None


def test_dual_reverses_character():
    m = lambda_module(2)
    ch = m.character()
    dch = dual_module(m).character()
    flipped = {(tuple(-x for x in w), -z): mult
               for (w, z), mult in ch.entries.items()}
    assert dch.entries == flipped


def test_tensor_character_is_convolution():
    a, b = lambda_module(2), adjoint_module(2)
    assert tensor_module(a, b).character() == convolve(a.character(), b.character())


def test_character_restrict_forgets_degree():
    ch = lambda_module(2).character()
    flat = restrict(ch)
    assert flat[(0, 0)] == 1 and flat[(1, 1)] == 1
    assert sum(flat.values()) == 4


def test_character_equality_is_structural():
    a = Character(2, {((1, 0), 1): 1})
    b = Character(2, {((1, 0), 1): 1})
    c = Character(2, {((1, 0), 1): 2})
    assert a == b and a != c


def test_singular_vectors_of_quotient():
    m = lambda_module(3)
    q = quotient_module(m, submodule_generated(m, [{0: Fraction(1)}]))
    b = BorelOrder("natural", 3, "max")
    sing = singular_vectors(q, b)
    assert len(sing) == 1
    (w,) = sing.keys()
    assert w == Weight(((1, 1), (2, 1), (3, 1)))


def test_psi_invariants_of_trivial():
    assert iso_check(psi_invariants(trivial_module(3)), gl_trivial(3)) is not None


@pytest.mark.parametrize("right", [lambda_module,
                                   lambda n: dual_module(lambda_module(n))],
                         ids=["Lambda", "Lambda*"])
def test_psi_invariants_of_a_product_satisfy_the_gl_commutators(right):
    # the kernel vectors here differ from their echelon rows, so a module
    # mixing the two bases breaks the relations
    inv = psi_invariants(tensor_module(lambda_module(3), right(3)))
    assert inv.dim > 1
    assert check_representation(inv, basis_terms(3, 0)) == []


def test_iso_check_rejects_different_characters():
    assert iso_check(lambda_module(2), dual_module(lambda_module(2))) is None


def test_submodule_module_restricts_action():
    m = lambda_module(3)
    sub = submodule_generated(m, [{0: Fraction(1)}])
    s = sub.module()
    assert s.dim == 1
    assert check_representation(s) == []


def test_full_submodule_is_its_parent():
    m = lambda_module(2)
    sub = submodule_generated(m, [{1: Fraction(1)}])
    assert sub.full and sub.module() is m
    assert not sub.echelon.reduce({3: Fraction(5)})


def test_quotient_of_an_integer_module_keeps_int_columns():
    # T(C) has integer columns and the constants span a submodule; the
    # quotient columns should not pick up Fraction arithmetic
    m = tensor_field(gl_trivial(3), 3)
    q = quotient_module(m, submodule_generated(m, [{0: 1}]))
    cols = [q.column(t, j) for t in q.gen_keys() for j in range(q.dim)]
    assert any(cols)
    assert all(type(x) is int for col in cols for x in col.values())


def test_restricted_and_quotient_columns_are_solved_once(monkeypatch):
    # each column is an echelon solve, so the source memoizes it: a second
    # read of every column solves nothing and gives the same columns
    sub = extract_L_minus_submodule((1,), (), 3)
    t = sub.parent
    assert 0 < sub.dim < t.dim
    solves = []

    def counted(fn):
        return lambda *args: solves.append(args) or fn(*args)

    def solved_once(m):
        keys = [(g, j) for g in m.gen_keys() for j in range(m.dim)]
        solves.clear()
        first = [m.column(g, j) for g, j in keys]
        assert len(solves) == len(keys) and any(first)
        assert [m.column(g, j) for g, j in keys] == first
        assert len(solves) == len(keys)

    # a restricted column applies the term to one echelon row
    monkeypatch.setattr(spanops, "apply_gen", counted(spanops.apply_gen))
    solved_once(sub.module())
    monkeypatch.undo()
    # a quotient column reduces one column of the parent
    monkeypatch.setattr(t, "column", counted(t.column))
    solved_once(quotient_module(t, sub))


def test_dual_transposes_each_term_once():
    m = lambda_module(3)
    reads = Counter()
    col_fn = m._col_fn
    m._col_fn = lambda term, j: reads.update([term]) or col_fn(term, j)
    d = dual_module(m)
    keys = [(t, j) for t in m.check_keys() for j in range(d.dim)]
    first = [d.column(t, j) for t, j in keys]
    assert [d.column(t, j) for t, j in keys] == first
    assert reads == {t: m.dim for t in m.check_keys()}


@pytest.mark.parametrize("case", ["gl", "tensor-field"])
def test_singular_line_is_the_first_vector_of_its_block(case):
    # at every weight that carries one: the first vector of the block's
    # joint kernel, as singular_vectors has it, from that block's columns
    if case == "gl":
        m, b = mixed_tensor(2, 1, 3), BorelOrder("natural", 3)
    else:
        m = tensor_field(gl_natural(3), 3)
        b = BorelOrder("natural", 3, "max")
    sing = singular_vectors(m, b)
    col, reads = m._col_fn, set()
    m._col_fn = lambda term, j: reads.add(j) or col(term, j)
    solved = 0
    for hw, vecs in sing.items():
        reads.clear()
        assert singular_line(m, b, hw) == vecs[0]
        assert reads <= set(m.weight_blocks()[hw])
        solved += bool(reads)
    assert len(sing) > 1 and solved


def test_singular_line_rejects_a_weight_without_one():
    m, b = gl_natural(3), BorelOrder("natural", 3)
    with pytest.raises(NonBasisElementError, match="does not occur"):
        singular_line(m, b, 2 * Weight.eps(1))
    with pytest.raises(NonBasisElementError, match="no singular vector"):
        singular_line(m, b, Weight.eps(2))


def test_quotient_of_full_submodule_raises():
    m = lambda_module(2)
    sub = submodule_generated(m, [{1: Fraction(1)}])
    assert sub.dim == m.dim
    with pytest.raises(ValueError):
        quotient_module(m, sub)


def test_weight_of_rejects_mixed_vectors():
    m = lambda_module(2)
    with pytest.raises(ValueError):
        weight_of(m, {0: Fraction(1), 1: Fraction(1)})
