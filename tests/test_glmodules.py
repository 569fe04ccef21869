"""Weight modules over the degree-zero part: construction, splitting,
and the contraction-layer identity."""

from collections import Counter
from functools import reduce
from itertools import product

import pytest

from superw import glmodules
from superw.errors import RankTooSmallError
from superw.glmodules import (cyclic_simple, decompose_character,
                              gl_conatural, gl_natural, gl_simple,
                              mixed_tensor, verify_socle_identity, weyl_dim)
from superw.linalg import RationalEchelon
from superw.modules import (GlModule, check_representation, dual_module,
                            iso_check, local_terms, quotient_module,
                            restrict_module, singular_line,
                            submodule_generated, tensor_module)
from superw.partitions import (Partition, partitions_of, schur_weights,
                               socle_layer_mults, stable_highest_weight)
from superw.spanops import (hom_basis, module_closure, restricted_action,
                            singular_blocks)
from superw.tensorfields import lambda_module
from superw.walgebra import BorelOrder, basis_terms
from superw.weights import Weight, order_sequence

from helpers import (decompose, hom_space, raising_terms, restrict, same_span,
                     schur_module)


# ---------------------------------------------------------------- peeling oracle


def gl_character(nu, n: int) -> dict[tuple, int]:
    """Weight multiplicities of the simple module with dominant weight nu.

    Handles negative entries by tensoring with a power of the determinant."""
    nu = tuple(nu)
    if len(nu) != n or any(nu[i] < nu[i + 1] for i in range(n - 1)):
        raise ValueError(f"{nu} is not dominant for rank {n}")
    shift = -min(nu[-1], 0)
    lam = Partition(tuple(c + shift for c in nu if c + shift > 0))
    base = schur_weights(lam, n)
    if shift == 0:
        return dict(base)
    return {tuple(c - shift for c in t): m for t, m in base.items()}


def char_product(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            t = tuple(x + y for x, y in zip(wa, wb))
            nv = out.get(t, 0) + ma * mb
            if nv:
                out[t] = nv
            else:
                out.pop(t, None)
    return out


def peel_character(ch: dict[tuple, int], n: int) -> dict[tuple, int]:
    """Write a character as a sum of simple characters by repeatedly
    stripping the lexicographically greatest surviving weight."""
    rest = {t: m for t, m in ch.items() if m}
    out: dict[tuple, int] = {}
    while rest:
        top = max(rest)
        mult = rest[top]
        if mult < 0 or any(top[i] < top[i + 1] for i in range(n - 1)):
            raise ValueError("character is not a nonnegative sum of simples")
        out[top] = out.get(top, 0) + mult
        piece = gl_character(top, n)
        for t, m in piece.items():
            nv = rest.get(t, 0) - mult * m
            if nv:
                rest[t] = nv
            else:
                rest.pop(t, None)
    return out


def conatural_schur_weights(mu, n: int) -> dict[tuple, int]:
    return {tuple(-x for x in reversed(t)): c for t, c in schur_weights(mu, n).items()}


PAIRS_LE4 = [(lam, mu) for s in range(5) for t in range(5 - s)
             for lam, mu in product(partitions_of(s), partitions_of(t))]


@pytest.mark.parametrize("lam,mu", PAIRS_LE4, ids=str)
def test_weyl_fold_matches_peeling(lam, mu):
    n = max(lam.size + mu.size, 1)
    product_ch = char_product(schur_weights(lam, n), conatural_schur_weights(mu, n))
    want = peel_character(product_ch, n)
    assert decompose_character(product_ch, n) == want
    top = tuple(lam) + (0,) * (n - lam.length)
    shifted = {tuple(a + b for a, b in zip(top, t)): c
               for t, c in conatural_schur_weights(mu, n).items()}
    assert decompose_character(shifted, n) == want


def test_decompose_character_of_mixed_tensor():
    ch = restrict(mixed_tensor(1, 1, 3).character())
    assert decompose_character(ch, 3) == {(1, 0, -1): 1, (0, 0, 0): 1}


def test_decompose_character_rejects_a_negative_multiplicity():
    # e^(-1,1) folds onto the trivial weight with sign -1
    with pytest.raises(ValueError):
        decompose_character({(-1, 1): 1}, 2)
    with pytest.raises(ValueError):
        decompose_character({(0, 0): -1}, 2)


def test_commutators_hold_on_builders():
    for m in (gl_natural(3), gl_conatural(3), mixed_tensor(1, 1, 3),
              schur_module((2,), 2)):
        assert check_representation(m, basis_terms(m.rank, 0)) == []


def test_check_representation_defaults_to_the_acting_terms():
    # the degree -1 and 1 terms act by zero on a gl module, so their
    # brackets with x_i d_j would fail; the default pairs are the module's
    assert gl_natural(3).check_keys() == basis_terms(3, 0)
    assert lambda_module(3).check_keys() == local_terms(3)
    for m in (gl_natural(3), gl_simple((1,), (1,), 3),
              gl_simple((2,), (1,), 4, order="interleaved")):
        assert check_representation(m) == []
    nat = gl_natural(3)
    e12 = (0b001, 2)

    def col(term, j):
        v = nat.column(term, j)
        return {r: -x for r, x in v.items()} if term == e12 else v

    flipped = GlModule(3, nat.weights, col_fn=col)
    assert (e12, (0b010, 1), 0) in check_representation(flipped)


def test_quotient_of_a_gl_module_is_a_gl_module():
    # Sym^2 V = (V (x) V) / Lambda^2 V; as a plain FiniteWModule the
    # quotient would be checked on the degree -1 and 1 terms too, which act
    # by zero here, and fail their brackets
    vv = tensor_module(gl_natural(3), gl_natural(3))
    wedge = submodule_generated(vv, [{1: 1, 3: -1}])  # e1 e2 - e2 e1
    sym2 = quotient_module(vv, wedge)
    assert isinstance(sym2, GlModule)
    assert (wedge.dim, sym2.dim) == (3, 6)
    assert check_representation(sym2) == []


def test_gl_generators_leave_out_the_cartan():
    # E_ij with i != j; the bracket check keeps every E_ij
    for n in (1, 2, 3, 4):
        m = gl_natural(n)
        assert m.gen_keys() == [(1 << (i - 1), j) for i in range(1, n + 1)
                                for j in range(1, n + 1) if i != j]
        assert m.check_keys() == basis_terms(n, 0)
        assert len(m.gen_keys()) == n * (n - 1)


def _same_rows(got, want):
    assert got.order == want.order
    assert [list(got.rows[p].items()) for p in got.order] == \
        [list(want.rows[p].items()) for p in want.order]


def _same_homs(got, want):
    assert [list(phi.items()) for phi in got] == [list(phi.items()) for phi in want]


@pytest.mark.parametrize("n", [1, 3, 4])
def test_cartan_free_spans_and_homs_match_all_n_squared_terms(n):
    # a Cartan term maps a weight vector to a multiple of itself, and a
    # block-diagonal map commutes with it: dropping the n terms changes no
    # closure row and no hom-space basis map
    checked = 0
    for lam, mu in product(SHAPES_LE2, SHAPES_LE2):
        try:
            hw = stable_highest_weight(lam, mu, "natural", n)
        except RankTooSmallError:
            continue
        lam, mu = Partition(lam), Partition(mu)
        amb = mixed_tensor(lam.size, mu.size, n)
        (vecs,) = singular_blocks(amb, raising_terms(BorelOrder("natural", n)),
                                  block_filter=lambda w: w == hw).values()
        for seeds in ([vecs[0]], [{j: 1} for j in range(amb.dim)]):
            _same_rows(module_closure(amb, amb.gen_keys(), seeds),
                       module_closure(amb, amb.check_keys(), seeds))
        m = gl_simple(lam, mu, n)
        others = [m, dual_module(dual_module(m))]
        if amb.dim <= 64:
            others.append(amb)
        for other in others:
            _same_homs(hom_space(m, other), hom_basis(m, other, m.check_keys()))
        checked += 1
    assert checked == {1: 5, 3: 15, 4: 16}[n]


def test_natural_and_conatural_are_dual():
    assert iso_check(dual_module(gl_conatural(3)), gl_natural(3)) is not None
    assert iso_check(dual_module(gl_natural(2)), gl_conatural(2)) is not None


def test_decompose_mixed_tensor():
    got = decompose(mixed_tensor(1, 1, 3))
    assert got == {Weight(((1, 1), (3, -1))): 1, Weight.zero(): 1}


def test_decompose_square_of_natural():
    got = decompose(tensor_module(gl_natural(2), gl_natural(2)))
    assert got == {Weight(((1, 2),)): 1, Weight(((1, 1), (2, 1))): 1}


def test_gl_simple_dims():
    assert gl_simple((1,), (), 4).dim == 4
    assert gl_simple((), (1,), 3).dim == 3
    assert gl_simple((1,), (1,), 3).dim == 8
    assert gl_simple((2,), (), 3).dim == 6
    assert gl_simple((), (), 5).dim == 1


def test_gl_simple_conatural_highest_weight():
    m = gl_simple((), (2,), 3)
    assert m.dim == 6
    tops = [v for v in range(m.dim)
            if m.weights[v] == Weight(((3, -2),))]
    assert len(tops) == 1


def test_gl_simple_interleaved_order():
    m = gl_simple((1,), (1,), 4, order="interleaved")
    assert m.dim == 15
    assert any(m.weights[v] == Weight(((1, 1), (2, -1))) for v in range(m.dim))


def test_schur_module_dims_match_tableau_count():
    for parts, n in (((2, 1), 3), ((2,), 4), ((1, 1, 1), 3)):
        assert schur_module(parts, n).dim == sum(schur_weights(parts, n).values())


def test_weyl_dim_of_a_mixed_weight():
    # the shapes alone are checked against the tableau count in
    # test_partitions; here both tails are nonzero
    assert weyl_dim((1, 0, 0, -1), 4) == 15
    assert weyl_dim((2, 0, 0, -2), 4) == 84


def test_socle_identity_single_constituent():
    rep = verify_socle_identity((1,), (), 3)
    assert rep.holds
    assert sorted(rep.layers) == [0]
    ((lp, mp, want, got),) = rep.layers[0]
    assert (lp, mp, want, got) == (Partition((1,)), Partition(), 1, 1)


def test_socle_identity_two_layers():
    rep = verify_socle_identity((1,), (1,), 4)
    assert rep.holds
    assert rep.lhs_dim == 16
    assert rep.layers[1] == [(Partition(), Partition(), 1, 1)]


def test_socle_identity_deeper_pair():
    rep = verify_socle_identity((2,), (1,), 5)
    assert rep.holds
    assert rep.lhs_dim == 15 * 5
    # one box cancels, leaving a single first-layer constituent
    assert rep.layers[1] == [(Partition((1,)), Partition(), 1, 1)]


def test_socle_identity_fails_below_stable_rank():
    # the top pair (1,1|1,1) needs rank 4; no layer verdict is given
    with pytest.raises(RankTooSmallError, match=r"need rank >= 4"):
        verify_socle_identity((1, 1), (1, 1), 2)
    with pytest.raises(RankTooSmallError):
        verify_socle_identity((1, 1), (1, 1), 3)
    assert verify_socle_identity((1, 1), (1, 1), 4).holds


def test_socle_identity_with_a_shape_longer_than_the_rank():
    for n in (2, 3):
        with pytest.raises(RankTooSmallError, match=r"need rank >= 4"):
            verify_socle_identity((1, 1, 1), (1,), n)


def test_every_layer_fits_once_the_top_pair_does():
    # layer pairs shrink both shapes, so a rank that carries (lam|mu)
    # carries every layer: each is checked, none is left out
    for lam in [p for s in range(4) for p in partitions_of(s)]:
        for mu in [p for s in range(3) for p in partitions_of(s)]:
            n = lam.length + mu.length
            if n == 0:
                continue
            rep = verify_socle_identity(lam, mu, n)
            layered = {(lp, mp) for rows in rep.layers.values()
                       for lp, mp, _, _ in rows}
            predicted = {pair for k in range(min(lam.size, mu.size) + 1)
                         for pair in socle_layer_mults(lam, mu, k)}
            assert layered == predicted, (lam, mu)


def test_socle_report_json_shape():
    data = verify_socle_identity((1,), (1,), 4).to_json()
    assert data["pass"] is True
    assert data["lambda"] == [1] and data["mu"] == [1] and data["n"] == 4
    ks = [layer["k"] for layer in data["layers"]]
    assert ks == sorted(ks)


def test_mixed_tensor_rank_guard():
    with pytest.raises(RankTooSmallError):
        gl_simple((1, 1, 1), (1, 1), 4)


# ---------------------------------------------------------------- eager oracle
#
# An independent build of gl(n) modules from the matrix rules alone: every
# E_ij column computed up front and keyed by the term of E_ij = x_i d_j,
# (1 << (i - 1), j), and the simple module closed under every E_ij.  Each
# lazily built gl_simple, closed under the n-1 lowering roots alone, must
# span the same subspace of the mixed tensor and match the eager matrix
# rules on its own rows column for column.


def eij(i: int, j: int) -> tuple:
    """The term x_i d_j of E_ij."""
    return (1 << (i - 1), j)


class EagerGl:
    """A gl(rank) module given by weights and eager term-keyed columns."""

    def __init__(self, rank: int, weights: list, cols: dict):
        self.rank = rank
        self.weights = weights
        self.cols = cols
        self.dim = len(weights)

    def gen_keys(self) -> list:
        return [eij(i, j) for i in range(1, self.rank + 1)
                for j in range(1, self.rank + 1)]

    def column(self, gen, j: int) -> dict:
        return self.cols.get(gen, {}).get(j, {})

    def weight_blocks(self) -> dict:
        blocks: dict = {}
        for j, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(j)
        return blocks


def eager_natural(n: int) -> EagerGl:
    # E_ij e_k = delta_jk e_i
    cols = {eij(i, j): {j - 1: {i - 1: 1}}
            for i in range(1, n + 1) for j in range(1, n + 1)}
    return EagerGl(n, [Weight.eps(i) for i in range(1, n + 1)], cols)


def eager_conatural(n: int) -> EagerGl:
    # E_ij f_k = -delta_ik f_j
    cols = {eij(i, j): {i - 1: {j - 1: -1}}
            for i in range(1, n + 1) for j in range(1, n + 1)}
    return EagerGl(n, [-Weight.eps(i) for i in range(1, n + 1)], cols)


def eager_dual(m: EagerGl) -> EagerGl:
    cols: dict = {}
    for gen, gc in m.cols.items():
        dual_gc: dict = {}
        for c, col in gc.items():
            for r, a in col.items():
                dual_gc.setdefault(r, {})[c] = -a
        if dual_gc:
            cols[gen] = dual_gc
    return EagerGl(m.rank, [-w for w in m.weights], cols)


def eager_tensor(a: EagerGl, b: EagerGl) -> EagerGl:
    db = b.dim
    cols: dict = {}
    for gen in set(a.cols) | set(b.cols):
        gc: dict = {}
        for ca in range(a.dim):
            for cb in range(db):
                out = {r * db + cb: x for r, x in a.column(gen, ca).items()}
                for r, x in b.column(gen, cb).items():
                    k = ca * db + r
                    nv = out.get(k, 0) + x
                    if nv:
                        out[k] = nv
                    else:
                        out.pop(k, None)
                if out:
                    gc[ca * db + cb] = out
        if gc:
            cols[gen] = gc
    return EagerGl(a.rank, [wa + wb for wa in a.weights for wb in b.weights], cols)


def eager_restrict_to_span(m: EagerGl, ech) -> EagerGl:
    weights, col = restricted_action(m, ech)
    cols: dict = {}
    for gen in m.gen_keys():
        gc = {t: c for t in range(len(weights)) if (c := col(gen, t))}
        if gc:
            cols[gen] = gc
    return EagerGl(m.rank, weights, cols)


def eager_gl_simple(lam, mu, n: int,
                    order: str) -> tuple[EagerGl, RationalEchelon]:
    """The eager mixed tensor and the echelon of the simple module in it,
    the highest-weight line closed under every E_ij."""
    lam, mu = Partition(lam), Partition(mu)
    factors = [eager_natural(n)] * lam.size + [eager_conatural(n)] * mu.size
    if not factors:
        amb = EagerGl(n, [Weight.zero()], {})
        return amb, module_closure(amb, [], [{0: 1}])
    amb = reduce(eager_tensor, factors)
    hw = stable_highest_weight(lam, mu, order, n)
    seq = order_sequence(order, n)
    raising = [eij(seq[s], seq[t]) for s in range(n) for t in range(s + 1, n)]
    (vecs,) = singular_blocks(amb, raising, block_filter=lambda w: w == hw).values()
    return amb, module_closure(amb, amb.gen_keys(), [vecs[0]])


def assert_same_columns(m, oracle: EagerGl) -> None:
    assert m.weights == oracle.weights
    for g in oracle.gen_keys():
        for c in range(oracle.dim):
            assert m.column(g, c) == oracle.column(g, c)


SHAPES_LE2 = [(), (1,), (2,), (1, 1)]
# pairs whose highest weight fits the rank in the order
CHECKED = {(3, "natural"): 15, (3, "interleaved"): 12,
           (4, "natural"): 16, (4, "interleaved"): 16,
           (5, "natural"): 16, (5, "interleaved"): 16}


@pytest.fixture
def closed_spans(monkeypatch) -> list:
    """The echelon each ``cyclic_simple`` restricts its mixed tensor to,
    appended as it is built."""
    spans = []

    def spy(m, ech, name=""):
        spans.append(ech)
        return restrict_module(m, ech, name=name)

    monkeypatch.setattr(glmodules, "restrict_module", spy)
    return spans


@pytest.mark.parametrize("order", ["natural", "interleaved"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_gl_simple_matches_the_eager_oracle(closed_spans, n, order):
    checked = 0
    for lam, mu in product(SHAPES_LE2, SHAPES_LE2):
        closed_spans.clear()
        try:
            m = gl_simple(lam, mu, n, order=order)
        except RankTooSmallError:
            with pytest.raises(RankTooSmallError):
                eager_gl_simple(lam, mu, n, order)
            continue
        amb, oracle = eager_gl_simple(lam, mu, n, order)
        (ech,) = closed_spans or [oracle]  # V(|) is built without a closure
        # one subspace: every lowering-root row lies in the E_ij closure
        assert same_span(ech, oracle)
        # the character is the multiset of weights
        want = eager_restrict_to_span(amb, oracle).weights
        assert Counter(m.weights) == Counter(want)
        if n < 5:  # all n^4 bracket pairs; n = 5 costs seconds
            assert check_representation(m) == []
        eager = eager_restrict_to_span(amb, ech)
        assert_same_columns(m, eager)
        assert_same_columns(dual_module(m), eager_dual(eager))
        checked += 1
    assert checked == CHECKED[n, order]


@pytest.mark.parametrize("order", ["natural", "interleaved"])
@pytest.mark.parametrize("lam,mu", [((2,), (1,)), ((1, 1), (1,))])
def test_submodule_generated_spans_the_cyclic_simple(closed_spans, lam, mu, order):
    # a generic closure runs over GlModule.gen_keys, all n(n-1) E_ij
    n = 4
    amb = mixed_tensor(2, 1, n)
    hw = stable_highest_weight(Partition(lam), Partition(mu), order, n)
    cyclic_simple(amb, hw, order=order)
    (ech,) = closed_spans
    sub = submodule_generated(amb, [singular_line(amb, BorelOrder(order, n), hw)])
    assert not sub.full
    assert same_span(ech, sub.echelon)


def test_eager_oracle_tells_the_dual_from_the_module():
    m = gl_simple((1,), (1,), 3)
    amb, oracle = eager_gl_simple((1,), (1,), 3, "natural")
    with pytest.raises(AssertionError):
        assert_same_columns(dual_module(m), eager_restrict_to_span(amb, oracle))


@pytest.mark.parametrize("build", [gl_natural, gl_conatural,
                                   lambda n: gl_simple((1,), (1,), n)],
                         ids=["V", "V*", "V(1|1)"])
def test_only_the_degree_zero_terms_act(build):
    # d_1 has no source index and x1x2 d1 is not a matrix unit: neither
    # may be read as some E_ij
    m = build(3)
    for term in [(0, 1), (0, 3), (0b11, 1), (0b101, 2), (0b111, 3)]:
        assert all(m.column(term, c) == {} for c in range(m.dim)), term
