"""The sl2 bound behind the dominance prune.

For each simple pair (i, j) of a Borel order, x_i d_j, x_j d_i and
E_ii - E_jj span an sl2, and every module here is finite-dimensional.
So a vector the raising terms kill, and a weight space outside the image
of the lowering terms, has w_i >= w_j: singular vectors and lowering
coinvariants sit at b-dominant weights only.  The scans solve only those
blocks; these tests hold them to the full scans and check the two facts
the bound rests on.
"""
from collections import Counter
from itertools import product

import pytest

import superw.spanops as spanops
import superw.tensorfields as tf
from superw.glmodules import gl_simple, mixed_tensor
from superw.induction import kac_minus_truncated, kac_plus
from superw.modules import (dual_module, generates, is_simple, quotient_module,
                            singular_space, singular_vectors,
                            submodule_generated)
from superw.spanops import coinvariant_blocks, singular_blocks
from superw.suite import PAIRS_LE2
from superw.tensorfields import extract_L_minus, lambda_module, tensor_field
from superw.walgebra import BorelOrder, triangular_terms
from superw.weights import ORDER_KINDS, Weight

from helpers import closure_oracle, natural_max_candidates

BORELS = [(kind, ext) for kind in ORDER_KINDS for ext in ("zero", "min", "max")]


def _fitting_pairs(n: int):
    return [(lam, mu) for lam, mu in PAIRS_LE2 if lam.length + mu.length <= n]


def _assert_prune_matches_the_full_scan(m, borels=BORELS):
    for kind, ext in borels:
        b = BorelOrder(kind, m.rank, ext)
        got = singular_vectors(m, b)
        want = singular_blocks(m, triangular_terms(b)[0])
        assert got == want, (kind, ext)
        assert list(got) == list(want), (kind, ext)


# ------------------------------------------------ the prune against the full scan


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", ["K+", "T"])
def test_singular_vectors_match_the_full_scan(family, n):
    build = kac_plus if family == "K+" else tensor_field
    for lam, mu in _fitting_pairs(n):
        _assert_prune_matches_the_full_scan(build(gl_simple(lam, mu, n), n))


@pytest.mark.parametrize("cutoff", [2, 3])
def test_singular_vectors_match_the_full_scan_on_truncations(cutoff):
    # the truncation drops raising action past its window, but gl(n) keeps
    # the degree, so the bound holds there as well
    for lam, mu in [((1,), (1,)), ((1,), ()), ((), (1,))]:
        m = kac_minus_truncated(gl_simple(lam, mu, 3, order="interleaved"), 3,
                                cutoff)
        _assert_prune_matches_the_full_scan(m)


def test_singular_vectors_match_the_full_scan_on_gl_modules():
    for p, q, n in [(2, 1, 3), (1, 1, 3), (2, 0, 3), (1, 2, 4)]:
        _assert_prune_matches_the_full_scan(mixed_tensor(p, q, n))
    for lam, mu in _fitting_pairs(4):
        _assert_prune_matches_the_full_scan(gl_simple(lam, mu, 4))


@pytest.mark.parametrize("lam,mu", _fitting_pairs(3), ids=str)
def test_singular_vectors_match_the_full_scan_on_duals(lam, mu):
    x = gl_simple(lam, mu, 3)
    for m in (dual_module(x), dual_module(kac_plus(x, 3)),
              dual_module(tensor_field(x, 3))):
        _assert_prune_matches_the_full_scan(m)


def test_singular_space_is_empty_off_the_dominant_weights():
    # as the full scan has it, and without reading a column there
    m = tensor_field(gl_simple((1,), (1,), 3), 3)
    borels = [BorelOrder(kind, 3, ext) for kind, ext in BORELS]
    fulls = [singular_blocks(m, triangular_terms(b)[0]) for b in borels]
    col, reads = m._col_fn, []
    m._col_fn = lambda term, j: reads.append(j) or col(term, j)
    for b, full in zip(borels, fulls):
        for w in m.weight_blocks():
            reads.clear()
            assert singular_space(m, b, w) == full.get(w, [])
            assert b.dominant(w) or not reads


def _generation_inputs():
    out = []
    for lam, mu in _fitting_pairs(3):
        out.append(pytest.param(
            lambda lam=lam, mu=mu: dual_module(tensor_field(gl_simple(lam, mu, 3), 3)),
            id=f"T(V({lam}|{mu}))*@3"))
    for lam, mu in _fitting_pairs(4):
        out.append(pytest.param(lambda lam=lam, mu=mu: gl_simple(lam, mu, 4),
                                id=f"V({lam}|{mu})@4"))
    for p, q in [(2, 1), (1, 1), (2, 0)]:
        out.append(pytest.param(lambda p=p, q=q: mixed_tensor(p, q, 3),
                                id=f"V^{p}(x)V*^{q}@3"))
    return out


@pytest.mark.parametrize("build", _generation_inputs())
def test_generation_test_matches_the_lowering_closure(build):
    # the pruned coinvariant count against the closure, on duals and on gl
    # modules, where generation can fail as well as hold
    m = build()
    b = BorelOrder("natural", m.rank, "max")
    _, lowering = triangular_terms(b)
    cands = natural_max_candidates(m)
    assert cands
    for w, v in cands:
        assert generates(m, w, v, b) == (closure_oracle(m, lowering, [v]).dim == m.dim)


def test_generation_fails_somewhere_among_the_inputs():
    # the comparison above is not vacuous: a mixed tensor's tops do not all
    # generate it
    m = mixed_tensor(2, 1, 3)
    b = BorelOrder("natural", 3, "max")
    assert not all(generates(m, w, v, b) for w, v in natural_max_candidates(m))


# ---------------------------------------------- the precondition and the bound


def _quotient_of_lambda(n: int):
    lam = lambda_module(n)
    return quotient_module(lam, submodule_generated(lam, [{0: 1}]))


BUILDERS = {
    "K+": lambda: kac_plus(gl_simple((1,), (1,), 3), 3),
    "T": lambda: tensor_field(gl_simple((2,), (1,), 3), 3),
    "K-": lambda: kac_minus_truncated(
        gl_simple((1,), (1,), 3, order="interleaved"), 3, 2),
    "dual": lambda: dual_module(tensor_field(gl_simple((1,), (1,), 3), 3)),
    "gl_simple": lambda: gl_simple((2,), (1,), 4),
    "L-": lambda: extract_L_minus((1,), (1,), 4),
    "quotient": lambda: _quotient_of_lambda(4),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_weight_labels_are_cartan_eigenvalues(name):
    # E_ii = x_i d_i acts on basis vector j by the scalar w_j[i]
    m = BUILDERS[name]()
    for i in range(1, m.rank + 1):
        e_ii = (1 << (i - 1), i)
        for j, w in enumerate(m.weights):
            assert m.column(e_ii, j) == ({j: w[i]} if w[i] else {}), (i, j)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_full_scans_find_answers_only_at_dominant_weights(name):
    m = BUILDERS[name]()
    for kind in ORDER_KINDS:
        _, lowering = triangular_terms(BorelOrder(kind, m.rank))
        coinv = [w for w, _ in coinvariant_blocks(m, lowering)]
        assert coinv
        for ext in ("zero", "min", "max"):
            b = BorelOrder(kind, m.rank, ext)
            sing = singular_blocks(m, triangular_terms(b)[0])
            assert sing
            assert all(b.dominant(w) for w in sing)
            assert all(b.dominant(w) for w in coinv)
    # and the prune has blocks to skip
    assert not all(BorelOrder("natural", m.rank).dominant(w)
                   for w in m.weight_blocks())


def test_dominant_reads_the_simple_pairs_of_the_order():
    w = Weight.from_dense((2, 0, 1))
    assert not BorelOrder("natural", 3).dominant(w)  # w2 < w3
    assert BorelOrder("interleaved", 3).dominant(w)  # order 1, 3, 2
    assert BorelOrder("natural", 3).dominant(Weight.from_dense((1, 1, 1)))


@pytest.mark.parametrize("n", range(1, 6))
def test_dominant_matches_the_one_based_reading(n):
    # every weight of the box {-1, 0, 1}^(n+2), so also every weight that
    # is longer than the rank, whose coordinates past it stay unread
    for kind in ORDER_KINDS:
        b = BorelOrder(kind, n)
        for coords in product((-1, 0, 1), repeat=n + 2):
            w = Weight.from_dense(coords)
            assert b.dominant(w) == all(w[i] >= w[j] for i, j in b.simple_pairs()), (kind, w)


# ------------------------------------------------------------- work counters


def test_is_simple_solves_only_the_dominant_blocks(monkeypatch):
    # 23 of the 229 blocks of K+(V(1|2)) at rank 4 are dominant: the
    # singular scan solves each once, and so does the generation test of
    # its one (generating) line, 46 kernel solves in all
    m = kac_plus(gl_simple((1,), (2,), 4), 4)
    calls = Counter()
    for name in ("block_kernel", "kernel_basis"):
        fn = getattr(spanops, name)
        monkeypatch.setattr(spanops, name, lambda *a, fn=fn, name=name:
                            calls.update([name]) or fn(*a))
    assert is_simple(m).simple
    assert len(m.weight_blocks()) == 229
    assert calls == {"block_kernel": 23, "kernel_basis": 46}


def test_duality_check_reads_only_the_columns_it_needs(monkeypatch):
    # the dual reads T(X)'s columns block by block, once each, where a
    # whole-matrix transpose reads all of them for every term it is asked
    reads = []
    build = tf.tensor_field

    def counted(x, n):
        t = build(x, n)
        col = t._col_fn
        t._col_fn = lambda term, j: reads.append((term, j)) or col(term, j)
        counted.module = t
        return t

    monkeypatch.setattr(tf, "tensor_field", counted)
    assert tf.coinduction_duality_check(gl_simple((2,), (1,), 4), 4).passes
    terms = {term for term, _ in reads}
    assert max(Counter(reads).values()) == 1
    assert len(reads) < counted.module.dim * len(terms)
