"""Committed mutation checks: each mutant swaps one library function for a
broken copy by monkeypatching, and is paired with the small check that
must catch it.  Every check passes on the library and fails under its
mutant; no file is edited.

Known equivalent mutant, not a gap: dropping a raising term in
``modules.top_generator``.  With equal characters the top block is a line
that no raising term can leave, so no check can tell the two apart."""

import pytest

from superw import (cli, glmodules, grassmann, induction, modules, stability,
                    walgebra)
from superw.glmodules import (gl_natural, gl_simple, verify_socle_identity,
                              weyl_dim)
from superw.grassmann import merge_sign, removal_sign
from superw.induction import kac_minus_truncated, kac_plus
from superw.linalg import vec_axpy
from superw.modules import (check_representation, dual_module, generates,
                            is_simple, psi_invariants, singular_line,
                            singular_vectors, submodule_generated,
                            tensor_module)
from superw.partitions import aspartition, stable_highest_weight
from superw.stability import restricted_character
from superw.suite import PAIRS_LE2, jacobi_failures
from superw.tensorfields import lambda_module, tensor_field
from superw.walgebra import BorelOrder, basis_terms, term_parity
from superw.weights import Weight

from helpers import (complement_signs, kac_plus_oracle, on_field_basis,
                     psi_span_oracle, raising_terms, restricted_character_oracle,
                     singular_blocks_oracle)


def check_gl_simple_dims():
    # Weyl's dimension formula, in both Borel orders
    for lam, mu in [((1,), (1,)), ((2,), (1,)), ((1, 1), ())]:
        top = stable_highest_weight(lam, mu, "natural", 4).dense(4)
        for order in ("natural", "interleaved"):
            assert gl_simple(lam, mu, 4, order).dim == weyl_dim(top, 4), \
                (lam, mu, order)


def check_kac_plus_dichotomy():
    # criterion 3 at rank 3: K+(V(lam|mu)) is simple exactly away from the
    # one-row duals, decided by singular vectors and the generation test
    for lam, mu in PAIRS_LE2:
        if lam.length + mu.length <= 3:
            expect = not (lam.size == 0 and mu.length <= 1)
            assert is_simple(kac_plus(gl_simple(lam, mu, 3), 3)).simple == expect, \
                (lam, mu)


def check_min_singular_vectors():
    # the interleaved "min" raising set has the joint kernel of every
    # raising term of that datum
    b = BorelOrder("interleaved", 3, "min")
    x = gl_simple((1,), (1,), 3, "interleaved")
    for m in (lambda_module(3), tensor_field(x, 3),
              kac_minus_truncated(gl_simple((1,), (), 3, "interleaved"), 3, 2)):
        assert {w: len(vecs) for w, vecs in singular_vectors(m, b).items()} == \
            {w: len(vecs) for w, vecs in
             singular_blocks_oracle(m, raising_terms(b)).items()}, m.name


def check_min_generation():
    # the "min" generation test agrees with the closure of the singular line
    # under every basis term: L-(1|1) and L-(1|) fill T, L-(2|) does not
    b = BorelOrder("interleaved", 3, "min")
    for lam, mu in [((1,), (1,)), ((1,), ()), ((2,), ())]:
        hw = stable_highest_weight(lam, mu, "interleaved", 3)
        t = tensor_field(gl_simple(lam, mu, 3, "interleaved"), 3)
        v = singular_line(t, b, hw)
        full = submodule_generated(t, [v]).module().dim == t.dim
        assert generates(t, hw, v, b) == full, (lam, mu)


def check_socle_dims():
    # both sides of S_lam(V) (x) S_mu(V*) by Weyl's formula, with a
    # two-part mu whose natural weight ends in -mu reversed
    for lam, mu, n in [((1,), (2, 1), 4), ((2, 1), (2, 1), 6)]:
        rep = verify_socle_identity(lam, mu, n)
        assert rep.holds and rep.lhs_dim == rep.rhs_dim, (lam, mu)


def check_psi_dims():
    # the invariants of Lambda(x)Lambda* hold four simple summands
    m = tensor_module(lambda_module(3), dual_module(lambda_module(3)))
    assert psi_invariants(m).dim == psi_span_oracle(m).dim


def check_restricted_characters():
    m = lambda_module(3)
    for mode in ("annihilator", "coinvariants"):
        assert restricted_character(m, 2, mode) == \
            restricted_character_oracle(m, 2, mode), mode


def check_dual_relations():
    # the sign rule of the contragredient action, on odd and even vectors
    assert check_representation(modules.dual_module(kac_plus(gl_natural(2), 2))) == []


def check_tensor_relations():
    # the sign an odd term picks up past an odd left factor
    assert check_representation(
        modules.tensor_module(kac_plus(gl_natural(2), 2), lambda_module(2))) == []


def check_kac_plus_against_the_straightening():
    # K+(V) at n = 2 against the straightening oracle, through the
    # isomorphism d_S (x) v -> eps(S) x^(S^c) (x) v
    x = gl_natural(2)
    m = induction.kac_plus(x, 2)
    oracle = on_field_basis(kac_plus_oracle(x, 2), 2, complement_signs(2))
    assert [(t, j, m.column(t, j)) for t in basis_terms(2) for j in range(m.dim)] == \
        [(t, j, oracle.column(t, j)) for t in basis_terms(2) for j in range(m.dim)]


def check_jacobi():
    # the graded Jacobi identity on random homogeneous triples at n = 3
    assert jacobi_failures(3, 200) == []


def check_leibniz():
    # the action on Lambda(3) is a superderivation of the product, on the
    # pairs ``superw check`` samples
    assert cli._leibniz_failures(3, 200, 7) == []


def check_lambda_relations():
    assert check_representation(lambda_module(3)) == []


def odd_term_on_odd_vector(term, w):
    return term_parity(term) and w.total() % 2


def flip_the_dual_parity_sign(dual_module):
    # entry -(-1)^(p(x)p(f)) f(x.v) of the dual action as -f(x.v): the
    # sign of an odd term on an odd row flips
    def dual(m):
        d = dual_module(m)
        return type(d)(d.rank, d.weights, col_fn=lambda t, j: {
            r: -x if odd_term_on_odd_vector(t, d.weights[r]) else x
            for r, x in d.column(t, j).items()})
    return dual


def flip_the_tensor_parity_sign(tensor_module):
    # x.(u (x) v) = x.u (x) v + (-1)^(p(x)p(u)) u (x) x.v with that sign
    # flipped: adding u (x) x.v twice turns -u (x) x.v into +u (x) x.v
    def tensor(a, b):
        t = tensor_module(a, b)

        def col(term, j):
            ia, ib = divmod(j, b.dim)
            out = dict(t.column(term, j))
            if odd_term_on_odd_vector(term, a.weights[ia]):
                vec_axpy(out, 2, {ia * b.dim + r: x
                                  for r, x in b.column(term, ib).items()})
            return out
        return type(t)(t.rank, t.weights, col_fn=col)
    return tensor


def drop_the_det_twist(kac_plus):
    # the tensor fields over X itself, where E_ii acts with one more
    return lambda x, n: modules.field_module(x, "K+")


def drop_the_removal_sign(field_columns):
    # the derivation hit x^a d_j(x^f) = removal_sign(j, f) merge_sign(a, rem)
    # x^(a|rem), rem = f minus x_j, without its removal sign: where that
    # sign is -1, the entry moves by twice the merged term
    def columns(x_col, dx):
        col = field_columns(x_col, dx)

        def mutant(term, j):
            f, v = divmod(j, dx)
            (a, tj), out = term, dict(col(term, j))
            if f >> (tj - 1) & 1 and removal_sign(tj, f) < 0:
                rem = f ^ 1 << (tj - 1)
                vec_axpy(out, 2 * merge_sign(a, rem), {(a | rem) * dx + v: 1})
            return out
        return mutant
    return columns


def flip_a_merge_sign(inversion_mask):
    # the sign kernel of the bracket or of the product: a merge with x_1 on
    # the right takes the wrong sign
    return lambda a: inversion_mask(a) ^ 1


def drop_the_merge_sign(gmul):
    # the product of two term dicts with every merge sign read as +1:
    # x^a x^b as the sorted monomial x^(a|b)
    def unsigned(ft, gt):
        out = {}
        for a, ca in ft.items():
            for b, cb in gt.items():
                if not a & b:
                    vec_axpy(out, ca * cb, {a | b: 1})
        return out
    return unsigned


def even_everywhere(parity):
    # the defect's sign rule: every argument read as even, so no double
    # bracket of odd arguments changes sign
    return lambda x: 0


def drop_a_lowering_root(lowering_roots):
    return lambda b: lowering_roots(b)[1:]


def seed_from_the_top_block(singular_blocks):
    def top_only(m, gen_keys, block_filter=None):
        out = singular_blocks(m, gen_keys, block_filter)
        top = max(out, key=lambda w: w.dense(m.rank))
        return {top: out[top]}
    return top_only


def drop_a_lowering_term(triangular_terms):
    # d_{sn} for "max", a lowering root for "min"
    def dropped(b):
        raising, lowering = triangular_terms(b)
        return raising, lowering[1:]
    return dropped


def drop_a_raising_term(triangular_terms):
    def dropped(b):
        raising, lowering = triangular_terms(b)
        return raising[:-1], lowering
    return dropped


def the_wrong_min_partial(triangular_terms):
    # d_{sn} in the "min" raising set, where d_{s1} belongs: the positive
    # roots carry d_{s1} to every d_j, but d_{sn} to none
    def wrong(b):
        raising, lowering = triangular_terms(b)
        if b.extension == "min":
            s = b.sequence()
            raising = tuple((0, s[-1]) if t == (0, s[0]) else t for t in raising)
        return raising, lowering
    return wrong


def the_wrong_min_top(triangular_terms):
    # x_{s(n-1)}x_{sn} d_{s1} in the "min" lowering set, where
    # x_{s1}x_{s2} d_{sn} belongs: a term of W_1 all the same, but with the
    # negative roots it generates less of W_{>=1}
    def wrong(b):
        raising, lowering = triangular_terms(b)
        if b.extension == "min" and b.rank >= 3:
            s = b.sequence()
            low = 1 << (s[-2] - 1) | 1 << (s[-1] - 1)
            lowering = lowering[:-2] + ((low, s[0]),) + lowering[-1:]
        return raising, lowering
    return wrong


def close_under_the_raising_roots(lowering_roots):
    # the simple raising root vectors x_{s_k} d_{s_(k+1)} in place of the
    # lowering ones
    return lambda b: tuple((1 << (i - 1), j) for i, j in b.simple_pairs())


def keep_the_mu_tail_unreversed(stable_highest_weight):
    # the natural weight with -mu_1, .., -mu_k in that order on the last k
    # indices, not -mu_k, .., -mu_1
    def unreversed(lam, mu, order, n):
        w = stable_highest_weight(lam, mu, order, n)
        if order != "natural":
            return w
        dense, k = w.dense(n), aspartition(mu).length
        return Weight.from_dense(dense[:n - k] + dense[n - k:][::-1])
    return unreversed


def skip_the_permutation_fill(orbit):
    return lambda dense: iter([dense])


MUTANTS = [
    pytest.param(glmodules, "lowering_roots", drop_a_lowering_root,
                 check_gl_simple_dims, id="cyclic_simple-drops-a-root"),
    pytest.param(modules, "singular_blocks", seed_from_the_top_block,
                 check_psi_dims, id="psi-seeds-the-top-block-only"),
    pytest.param(modules, "triangular_terms", drop_a_lowering_term,
                 check_kac_plus_dichotomy, id="triangular-drops-a-lowering-term"),
    pytest.param(modules, "triangular_terms", drop_a_raising_term,
                 check_min_singular_vectors, id="triangular-drops-a-raising-term"),
    pytest.param(modules, "triangular_terms", the_wrong_min_partial,
                 check_min_singular_vectors, id="min-raises-by-the-wrong-partial"),
    pytest.param(modules, "triangular_terms", the_wrong_min_top,
                 check_min_generation, id="min-lowers-by-the-wrong-top-term"),
    pytest.param(modules, "lowering_roots", close_under_the_raising_roots,
                 check_psi_dims, id="psi-closes-under-the-raising-roots"),
    pytest.param(glmodules, "stable_highest_weight", keep_the_mu_tail_unreversed,
                 check_socle_dims, id="natural-weight-keeps-mu-unreversed"),
    pytest.param(stability, "_orbit", skip_the_permutation_fill,
                 check_restricted_characters, id="restricted-skips-the-orbit"),
    pytest.param(modules, "dual_module", flip_the_dual_parity_sign,
                 check_dual_relations, id="dual-flips-the-parity-sign"),
    pytest.param(modules, "tensor_module", flip_the_tensor_parity_sign,
                 check_tensor_relations, id="tensor-flips-the-parity-sign"),
    pytest.param(induction, "kac_plus", drop_the_det_twist,
                 check_kac_plus_against_the_straightening,
                 id="kac_plus-drops-the-det-twist"),
    pytest.param(modules, "field_columns", drop_the_removal_sign,
                 check_leibniz, id="field-columns-drop-the-removal-sign-leibniz"),
    pytest.param(modules, "field_columns", drop_the_removal_sign,
                 check_lambda_relations,
                 id="field-columns-drop-the-removal-sign-representation"),
    pytest.param(walgebra, "inversion_mask", flip_a_merge_sign,
                 check_jacobi, id="bracket-flips-a-merge-sign"),
    pytest.param(cli, "gmul", drop_the_merge_sign,
                 check_leibniz, id="leibniz-product-drops-the-merge-sign"),
    pytest.param(grassmann, "inversion_mask", flip_a_merge_sign,
                 check_leibniz, id="leibniz-product-flips-a-merge-sign"),
    pytest.param(walgebra, "parity", even_everywhere,
                 check_jacobi, id="jacobi-defect-reads-every-parity-as-even"),
]


@pytest.mark.parametrize("module,name,mutate,check", MUTANTS)
def test_the_check_catches_its_mutant(monkeypatch, module, name, mutate, check):
    check()
    with monkeypatch.context() as mp:
        mp.setattr(module, name, mutate(getattr(module, name)))
        with pytest.raises(AssertionError):
            check()
    check()
