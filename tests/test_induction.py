"""Induced modules in both directions, typicality, and primitives.

The downward truncations are lossy at the degree boundary by design;
relation checks here stay inside the window where every evaluation path
remains below the cutoff.
"""

from fractions import Fraction

import pytest

import superw.induction as induction
from superw.glmodules import gl_natural, gl_simple, gl_trivial
from superw.grassmann import indices_of
from superw.induction import kac_minus_truncated, kac_plus, typicality
from superw.modules import (FiniteWModule, GlModule, check_representation,
                            is_simple, local_terms, singular_vectors,
                            submodule_generated, tensor_module)
from superw.partitions import Partition
from superw.suite import PAIRS_LE2
from superw.tensorfields import tensor_field
from superw.walgebra import (BorelOrder, basis_terms, generating_terms,
                             term_degree)
from superw.weights import Weight

from helpers import (complement_signs, grading_element, hom_space, hom_value,
                     kac_plus_oracle, layer_dims, on_field_basis)


def test_kac_plus_of_trivial_base():
    m = kac_plus(gl_trivial(2), 2)
    assert m.dim == 4
    assert {w.dense(2) for w in m.weights} == {(0, 0), (-1, 0), (0, -1), (-1, -1)}
    assert layer_dims(m) == {0: 1, 1: 2, 2: 1}


def test_kac_plus_satisfies_the_bracket_relation():
    for n in (2, 3):
        m = kac_plus(gl_natural(n), n)
        assert check_representation(m) == []


def test_kac_plus_columns_on_the_field_basis():
    # K+(V) at n = 2 is T(V (x) det^-1) on x^f (x) e_v at f * 2 + v: vector 3
    # is x1 (x) e2; E_ii acts on the twisted base by e_k -> (delta_ik - 1) e_k,
    # and (xi^a d_j).(f (x) v) = (xi^a d_j f) (x) v
    #                           + (-1)^p(xi^a d_j) sum_i d_i(xi^a) f (x) E_ij v
    m = kac_plus(gl_natural(2), 2)
    e1, e2 = Weight.eps(1), Weight.eps(2)
    assert m.weights == [-e2, -e1, e1 - e2, Weight.zero(),
                         Weight.zero(), e2 - e1, e1, e2]
    # layer n - |f|: the copy of V at x1 x2 is layer 0
    assert [m.meta["base_total"] - w.total() for w in m.weights] == [2, 2, 1, 1, 1, 1, 0, 0]
    # d_1 (x1 x2) = x2 and d_2 (x1 x2) = -x1; W_-1 kills 1 (x) v
    assert m.column((0, 1), 6) == {4: 1}
    assert m.column((0, 2), 6) == {2: -1}
    assert m.column((0, 1), 0) == {}
    # E_22 on 1 (x) e1: e1 (x) det^-1 has E_22-weight -1
    assert m.column((2, 2), 0) == {0: -1}
    # E_11 on x1 x2 (x) e2: x1 x2 adds one, E_11 e2 = -e2
    assert m.column((1, 1), 7) == {}
    # E_12 = x1 d_2 on x2 (x) e2: x1 (x) e2 + x2 (x) E_12 e2
    assert m.column((1, 2), 5) == {3: 1, 4: 1}
    # x1 x2 d_2 is odd: -(x2 (x) E_12 e1 - x1 (x) E_22 e1) = -x1 (x) e1 on 1 (x) e1
    assert m.column((3, 2), 0) == {2: -1}
    # and -(x2 x1 (x) E_12 e2 - x1 x1 (x) E_22 e2) = x1 x2 (x) e1 on x1 (x) e2
    assert m.column((3, 2), 3) == {6: 1}
    # x1 x2 d_1: -(x2 (x) E_11 e2 - x1 (x) E_21 e2) = x2 (x) e2 on 1 (x) e2
    assert m.column((3, 1), 1) == {5: 1}
    assert m.column((3, 1), 0) == {3: 1}


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
        z = m.weights[i].total()
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


def test_kac_minus_interior_relations_hold():
    m = kac_minus_truncated(gl_natural(3), 3, 2)
    base = [i for i in range(m.dim) if m.weights[i].total() == m.meta["base_total"]]
    assert check_representation(m, vectors=base) == []
    low = [t for t in local_terms(3) if term_degree(t) <= 0]
    layer1 = [i for i in range(m.dim)
              if m.weights[i].total() == m.meta["base_total"] + 1]
    assert check_representation(m, terms=low, vectors=layer1) == []


def test_kac_minus_straightens_each_column_once():
    # the straightening recursion memoizes its own columns: across two reads
    # of every column, it reads each base column once
    x = gl_natural(3)
    reads = []
    col_fn = x._col_fn
    x._col_fn = lambda term, v: reads.append((term, v)) or col_fn(term, v)
    m = kac_minus_truncated(x, 3, 2)
    keys = [(t, j) for t in local_terms(3) for j in range(m.dim)]
    first = [m.column(t, j) for t, j in keys]
    n_reads = len(reads)
    assert [m.column(t, j) for t, j in keys] == first
    assert len(reads) == n_reads == len(set(reads)) > 0


def test_kac_minus_truncation_has_degree_one_primitives():
    m = kac_minus_truncated(gl_trivial(3), 3, 2)
    b = BorelOrder("interleaved", 3, "min")
    layer1 = m.meta["base_total"] + m.meta["layer_sign"]
    prim = {w: vecs for w, vecs in singular_vectors(m, b).items()
            if w.total() == layer1}
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


# ------------------------------------------ closed-form columns vs straightening


def column_mismatches(m, oracle, terms) -> list:
    """(term, j) where the two modules' columns differ in a value, or in
    the type of an entry."""
    bad = []
    for t in terms:
        for j in range(m.dim):
            got, want = m.column(t, j), oracle.column(t, j)
            if got != want or any(type(c) is not type(want[k]) for k, c in got.items()):
                bad.append((t, j))
    return bad


def pair_id(pair) -> str:
    lam, mu = pair
    return f"({','.join(map(str, lam.parts))}|{','.join(map(str, mu.parts))})"


def fitting(n: int) -> list:
    return [(lam, mu) for lam, mu in PAIRS_LE2 if lam.length + mu.length <= n]


def straightening(x: GlModule, n: int) -> FiniteWModule:
    """``kac_plus_oracle`` carried to the basis of ``kac_plus``."""
    return on_field_basis(kac_plus_oracle(x, n), n, complement_signs(n))


@pytest.mark.parametrize("n,pair", [(n, p) for n in (1, 2, 3) for p in fitting(n)],
                         ids=lambda v: pair_id(v) if isinstance(v, tuple) else f"n={v}")
def test_kac_plus_matches_straightening_on_every_term(n, pair):
    x = gl_simple(*pair, n)
    m, oracle = kac_plus(x, n), straightening(x, n)
    assert m.weights == oracle.weights
    assert column_mismatches(m, oracle, basis_terms(n)) == []


RANK_FIVE_PAIRS = [(Partition((1,)), Partition()), (Partition(), Partition((1,))),
                   (Partition((1,)), Partition((1,))), (Partition((2,)), Partition((1,)))]


@pytest.mark.parametrize("n,pair", [(4, p) for p in fitting(4)]
                         + [(5, p) for p in RANK_FIVE_PAIRS],
                         ids=lambda v: pair_id(v) if isinstance(v, tuple) else f"n={v}")
def test_kac_plus_matches_straightening_on_generators(n, pair):
    # the generators and the Cartan determine the whole action
    x = gl_simple(*pair, n)
    m, oracle = kac_plus(x, n), straightening(x, n)
    terms = generating_terms(n) + basis_terms(n, 0)
    assert column_mismatches(m, oracle, terms) == []


def det_line(n: int, twist: int) -> GlModule:
    """The gl(n) line det^twist: E_ii acts by twist, E_ij (i != j) by zero."""
    return GlModule(n, [Weight.from_dense([twist] * n)],
                    col_fn=lambda t, j: {0: twist} if t[0] == 1 << (t[1] - 1) else {})


@pytest.mark.parametrize("n,pair", [(n, p) for n in (1, 2, 3) for p in fitting(n)],
                         ids=lambda v: pair_id(v) if isinstance(v, tuple) else f"n={v}")
def test_kac_plus_is_the_tensor_fields_of_the_twisted_base(n, pair):
    # K+(X) = T(X (x) det^-1) index for index, with the twist built as a
    # tensor product here and applied to the base's columns in the library
    x = gl_simple(*pair, n)
    m, t = kac_plus(x, n), tensor_field(tensor_module(x, det_line(n, -1)), n)
    assert m.weights == t.weights
    assert column_mismatches(m, t, basis_terms(n)) == []


def test_negative_control_flipped_sign_or_det_fails_the_comparison():
    # the oracle carried by a wrong sign table, or the fields over det^+1,
    # must differ from the fields over det^-1
    n = 3
    x = gl_simple((1,), (1,), n)
    oracle = kac_plus_oracle(x, n)
    terms = basis_terms(n)
    eps = complement_signs(n)

    def fields(twist):
        return tensor_field(tensor_module(x, det_line(n, twist)), n)

    assert column_mismatches(fields(-1), on_field_basis(oracle, n, eps), terms) == []
    flipped = [(-1) ** sum(indices_of(s)) for s in range(1 << n)]
    unsigned = [1] * (1 << n)
    for twist, signs in ((-1, flipped), (-1, unsigned), (1, eps)):
        assert column_mismatches(fields(twist), on_field_basis(oracle, n, signs), terms)


def test_kac_plus_leaves_the_bracket_cache_alone():
    before = dict(induction._BRACKETS)
    m = kac_plus(gl_simple((1,), (1,), 3), 3)
    assert is_simple(m).simple
    assert induction._BRACKETS == before
