"""Induced modules in both directions, typicality, and primitives.

The downward truncations are lossy at the degree boundary by design;
relation checks here stay inside the window where every evaluation path
remains below the cutoff.
"""

from fractions import Fraction

from superw.glmodules import gl_natural, gl_simple, gl_trivial
from superw.induction import (find_primitive, kac_minus_truncated, kac_plus,
                              typicality)
from superw.modules import (check_representation, is_simple, local_terms,
                            submodule_generated)
from superw.spanops import hom_space
from superw.suite import PAIRS_LE2
from superw.walgebra import BorelOrder, term_degree
from superw.weights import Weight

from helpers import grading_element, hom_value, layer_dims


def test_kac_plus_of_trivial_base():
    m = kac_plus(gl_trivial(2), 2)
    assert m.dim == 4
    assert {w.dense(2) for w in m.weights} == {(0, 0), (-1, 0), (0, -1), (-1, -1)}
    assert layer_dims(m) == {0: 1, 1: 2, 2: 1}


def test_kac_plus_satisfies_the_bracket_relation():
    for n in (2, 3):
        m = kac_plus(gl_natural(n), n)
        assert check_representation(m) == []


def test_kac_plus_straightening_column():
    # moving a degree-one operator past one lowering generator leaves a
    # lowering generator plus a degree-zero action on the base
    m = kac_plus(gl_natural(2), 2)
    assert m.labels[2] == "d1|x0"
    assert m.column((1, 2), 2) == {4: -1}
    assert m.column((1, 2), 3) == {5: -1, 2: 1}


def test_kac_plus_layer_dims_scale_with_base():
    m = kac_plus(gl_simple((), (1,), 3), 3)
    assert layer_dims(m) == {0: 3, 1: 9, 2: 9, 3: 3}
    assert m.dim == 24


def test_grading_element_reads_layers():
    m = kac_plus(gl_simple((), (1,), 3), 3)
    e = grading_element(3)
    t0 = m.meta["base_total"]
    seen: dict[int, int] = {}
    for i in range(m.dim):
        out = m.act(e, {i: Fraction(1)})
        z = m.zdegs[i]
        assert out == ({i: Fraction(z)} if z else {})
        seen[t0 - z] = seen.get(t0 - z, 0) + 1
    assert seen == layer_dims(m)


def test_resolution_hom_is_one_dimensional_with_maximal_image():
    a = kac_plus(gl_simple((), (2,), 3), 3)
    b = kac_plus(gl_simple((), (1,), 3), 3)
    homs = hom_space(a, b)
    assert len(homs) == 1
    img = submodule_generated(
        b, [hom_value(homs[0], {j: Fraction(1)}) for j in range(a.dim)])
    # the image is the unique maximal submodule: the quotient is the
    # seven-dimensional simple
    assert img.dim == b.dim - 7


def test_kac_minus_truncation_sizes():
    m = kac_minus_truncated(gl_natural(3), 3, 1)
    assert m.dim == 30
    assert layer_dims(m) == {0: 3, 1: 27}
    assert m.meta["lossy"] is True


def test_kac_minus_interior_relations_hold():
    m = kac_minus_truncated(gl_natural(3), 3, 2)
    base = [i for i in range(m.dim) if m.zdegs[i] == m.meta["base_total"]]
    assert check_representation(m, vectors=base) == []
    low = [t for t in local_terms(3) if term_degree(t) <= 0]
    layer1 = [i for i in range(m.dim)
              if m.zdegs[i] == m.meta["base_total"] + 1]
    assert check_representation(m, terms=low, vectors=layer1) == []


def test_kac_minus_truncation_has_degree_one_primitives():
    m = kac_minus_truncated(gl_trivial(3), 3, 2)
    b = BorelOrder("interleaved", 3, "min")
    prim = find_primitive(m, b, degrees=[1])
    assert prim


def test_typicality_patterns():
    t = typicality(Weight(((2, 3), (3, 1), (4, 1))), 4)
    assert not t.typical and (t.position, t.coefficient) == (2, 3)
    t = typicality(Weight(((4, -2),)), 4)
    assert not t.typical and (t.position, t.coefficient) == (4, -2)
    t = typicality(Weight.zero(), 4)
    assert not t.typical and (t.position, t.coefficient) == (4, 0)
    t = typicality(Weight(((1, 1), (2, 1), (3, 1))), 3)
    assert not t.typical and (t.position, t.coefficient) == (1, 1)
    assert typicality(Weight(((1, 2),)), 3).typical
    assert typicality(Weight(((1, 1), (3, 1))), 3).typical


def test_typicality_json():
    t = typicality(Weight(((4, -2),)), 4)
    data = t.to_json()
    assert data["typical"] is False
    assert data["position"] == 4 and data["coefficient"] == -2


def test_kac_plus_simplicity_tracks_typicality_small():
    # one typical and one atypical pair at rank 3
    typ = kac_plus(gl_simple((1,), (1,), 3), 3)
    assert is_simple(typ).simple
    atyp = kac_plus(gl_simple((), (1,), 3), 3)
    assert not is_simple(atyp).simple


def test_rank_five_dichotomy():
    # criterion 3 one rank up: K+(V(lam|mu)) is simple exactly away from
    # lam = () with at most one row in mu, decided by the highest weight
    for lam, mu in PAIRS_LE2:
        verdict = is_simple(kac_plus(gl_simple(lam, mu, 5), 5))
        assert verdict.simple == (not (lam.size == 0 and mu.length <= 1)), (lam, mu)
        assert verdict.method in ("highest-weight", "witness")
