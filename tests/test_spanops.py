"""Closure, singular blocks, and hom spaces over module columns."""

from fractions import Fraction

import pytest

from superw.errors import NonBasisElementError, RankMismatchError
from superw.glmodules import (gl_conatural, gl_natural, gl_simple, gl_trivial,
                              weyl_dim)
from superw.induction import kac_minus_truncated, kac_plus
from superw.linalg import RationalEchelon
from superw.modules import (check_representation, dual_module, generates,
                            is_simple, local_terms, psi_invariants,
                            quotient_module, singular_space, singular_vectors,
                            submodule_generated, tensor_module)
import superw.glmodules as glm
import superw.spanops as spanops
from superw.spanops import (apply_gen, burnside_full, hom_basis,
                            module_closure, restricted_action, singular_blocks)
from superw.partitions import stable_highest_weight
from superw.errors import RankTooSmallError
from superw.suite import PAIRS_LE2
from superw.tensorfields import adjoint_module, lambda_module, tensor_field
from superw.walgebra import (BorelOrder, generating_terms, term_weight,
                             triangular_terms)
from superw.weights import Weight
import helpers
from helpers import (IsomorphismUndecidedError, block_kernel_unsorted,
                     block_positions, closure_oracle, direct_sum,
                     extract_L_minus_oracle, hom_basis_oracle, hom_space,
                     hom_value, iso_check_oracle, raising_terms,
                     singular_blocks_oracle, trivial_module)
from test_linalg import dense_kernel


def _proper_L_minus(lam, n):
    sub = extract_L_minus_oracle(lam, (), n)
    assert not sub.full
    return sub


def _shift_builders():
    """One module of each builder at ranks 2-4: inductions, tensor fields,
    the exterior and adjoint modules, duals, tensor products, a gl simple
    (a restricted module), a proper L- submodule, a quotient and the
    invariants of a tensor field."""
    out = []
    for n in (2, 3, 4):
        builds = {
            "K+(1|1)": lambda n: kac_plus(gl_simple((1,), (1,), n), n),
            "K-(1|)D2": lambda n: kac_minus_truncated(gl_simple((1,), (), n), n, 2),
            "T(1|1)": lambda n: tensor_field(gl_simple((1,), (1,), n), n),
            "Lambda": lambda_module,
            "adjoint": adjoint_module,
            "K+(|1)*": lambda n: dual_module(kac_plus(gl_simple((), (1,), n), n)),
            "Lambda(x)V": lambda n: tensor_module(
                lambda_module(n), tensor_field(gl_natural(n), n)),
            "V(2|1)": lambda n: gl_simple((2,), (1,), n),
            "V(1|1)*(x)V": lambda n: tensor_module(
                dual_module(gl_simple((1,), (1,), n)), gl_natural(n)),
            "L-(2|)": lambda n: _proper_L_minus((2,), n).module(),
            "T(1|)/L-": lambda n: quotient_module(
                (sub := _proper_L_minus((1,), n)).parent, sub),
            "Psi(T(1|))": lambda n: psi_invariants(tensor_field(gl_simple((1,), (), n), n)),
        }
        out += [pytest.param(b, n, id=f"{name}@{n}") for name, b in builds.items()]
    return out


@pytest.mark.parametrize("build,n", _shift_builders())
def test_each_generator_moves_every_weight_by_its_own(build, n):
    # the protocol invariant behind the predicted targets: a column of gen
    # on a vector of weight mu lies at weight mu + term_weight(gen), and
    # each weight block is keyed by the weight of each of its vectors
    m = build(n)
    assert m.dim and m.rank == n
    for w, cols in m.weight_blocks().items():
        assert all(m.weights[j] == w for j in cols), w
    moved = 0
    for g in set(m.gen_keys()) | set(m.check_keys()):
        shift = term_weight(g)
        for j in range(m.dim):
            col = m.column(g, j)
            moved += bool(col)
            want = m.weights[j] + shift
            assert all(m.weights[r] == want for r in col), (g, j)
    assert moved


def test_closure_from_constants_is_one_dimensional():
    m = lambda_module(3)
    ech = module_closure(m, local_terms(3), [{0: Fraction(1)}])
    assert ech.dim == 1


def test_closure_from_generator_is_everything():
    m = lambda_module(3)
    for seed in (1, 7):  # xi1, xi1 xi2 xi3
        ech = module_closure(m, local_terms(3), [{seed: Fraction(1)}])
        assert ech.dim == m.dim


def _same_echelon(got, want):
    assert got.order == want.order
    assert list(got.rows) == list(want.rows)
    for p in want.order:
        assert list(got.rows[p].items()) == list(want.rows[p].items())


@pytest.mark.parametrize("n,lam,mu", [(n, lam, mu) for n in (3, 4)
                                      for lam, mu in PAIRS_LE2
                                      if lam.length + mu.length <= n],
                         ids=lambda x: str(x))
def test_closure_matches_the_oracle_row_for_row(n, lam, mu):
    # skipping generators into absent weights and full weight blocks, and
    # stopping at the whole module, changes no row, no row order and no
    # item order: the restricted action and the CLI reports read all three;
    # the joint kernels skip only zero columns, so they match to the item
    b = BorelOrder("natural", n, "max")
    raising, lowering = triangular_terms(b)
    x = gl_simple(lam, mu, n)
    for m in (kac_plus(x, n), tensor_field(x, n)):
        cands = [v for vecs in singular_vectors(m, b).values() for v in vecs]
        assert cands
        for gens in (m.gen_keys(), lowering):
            for seeds in [[v] for v in cands] + [[{0: Fraction(1)}], cands]:
                _same_echelon(module_closure(m, gens, seeds),
                              closure_oracle(m, gens, seeds))
        for gens in (raising, lowering, m.gen_keys()):
            _same_kernels(singular_blocks(m, gens),
                          singular_blocks_oracle(m, gens))


def _same_kernels(got, want):
    assert list(got) == list(want)
    for key, vecs in want.items():
        assert [list(v.items()) for v in got[key]] == [list(v.items()) for v in vecs]


def test_closure_requests_no_column_into_an_absent_weight():
    # a generator's shift is its own weight, so the closure asks for none
    # of the columns whose target weight T(V(1|1)) lacks, not even before
    # the generator's first nonzero image; the oracle builds every one
    seed = extract_L_minus_oracle((1,), (1,), 4).echelon
    seed = seed.rows[seed.order[0]]

    def counted(closure):
        t = tensor_field(gl_simple((1,), (1,), 4), 4)
        present = set(t.weights)
        misses, blind = [], []
        col_fn = t._col_fn

        def col(term, j):
            misses.append((term, j))
            if t.weights[j] + term_weight(term) not in present:
                blind.append((term, j))
            return col_fn(term, j)

        t._col_fn = col
        ech = closure(t, t.gen_keys(), [seed])
        assert ech.dim == t.dim
        return len(misses), blind

    fast, blind = counted(module_closure)
    slow, slow_blind = counted(closure_oracle)
    assert blind == [] and slow_blind  # the check sees the oracle's waste
    # skipping full blocks alone left 1,024 of the oracle's 2,160 misses
    assert fast < 0.3 * slow


def test_kernels_and_generation_request_no_column_into_an_absent_weight():
    # block_kernel drops every generator whose target weight T(V(1|1))
    # lacks, so neither singular scan nor the generation test reads such a
    # column; the oracle's kernels read them all
    t = tensor_field(gl_simple((1,), (1,), 4), 4)
    b = BorelOrder("natural", 4, "max")
    present = set(t.weights)
    reads, blind = [], []
    col_fn = t._col_fn

    def col(term, j):
        reads.append((term, j))
        if t.weights[j] + term_weight(term) not in present:
            blind.append((term, j))
        return col_fn(term, j)

    t._col_fn = col
    sing = singular_vectors(t, b)
    spaces = {w: singular_space(t, b, w) for w in t.weight_blocks()}
    assert sing and {w: v for w, v in spaces.items() if v} == sing
    assert all(generates(t, w, v, b) for w, vecs in sing.items() for v in vecs)
    assert reads and blind == []
    singular_blocks_oracle(t, triangular_terms(b)[0], b.dominant)
    assert blind  # the check sees the oracle's waste


def _gl_simple_fits(lam, mu, order, n):
    try:
        stable_highest_weight(lam, mu, order, n)
    except RankTooSmallError:
        return False
    return True


@pytest.mark.parametrize("lam,mu,order", [
    (lam, mu, order) for order in ("natural", "interleaved")
    for lam, mu in PAIRS_LE2 if _gl_simple_fits(lam, mu, order, 4)], ids=str)
def test_gl_simples_keep_their_weights_and_columns(lam, mu, order, monkeypatch):
    got = gl_simple(lam, mu, 4, order=order)
    monkeypatch.setattr(glm, "module_closure", closure_oracle)
    want = gl_simple(lam, mu, 4, order=order)
    assert got.weights == want.weights
    for g in want.gen_keys():
        for j in range(want.dim):
            assert list(got.column(g, j).items()) == list(want.column(g, j).items())


def _recording_echelon(m, calls, full_rejects):
    """An echelon that counts its inserts and records each rejected one
    whose weight block was already full."""
    block_of = block_positions(m)
    sizes = [len(cols) for cols in m.weight_blocks().values()]

    class Recording(RationalEchelon):
        def insert(self, v):
            calls.append(v)
            b = block_of[next(iter(v))]
            filled = sum(block_of[p] == b for p in self.rows)
            piv = super().insert(v)
            if piv is None and filled == sizes[b]:
                full_rejects.append(b)
            return piv

    return Recording


def test_closure_inserts_nothing_into_a_full_block(monkeypatch):
    # L-(1|1) fills all of T(V(1|1)) at n = 4, so most images the old
    # closure inserted landed in full blocks and reduced to zero
    sub = extract_L_minus_oracle((1,), (1,), 4)
    t = sub.parent
    assert sub.full
    seed = sub.echelon.rows[sub.echelon.order[0]]
    calls, rejects = [], []
    monkeypatch.setattr(spanops, "RationalEchelon",
                        _recording_echelon(t, calls, rejects))
    fast = module_closure(t, t.gen_keys(), [seed])
    assert fast.dim == t.dim and rejects == []
    fast_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(helpers, "RationalEchelon",
                        _recording_echelon(t, calls, rejects))
    slow = closure_oracle(t, t.gen_keys(), [seed])
    _same_echelon(fast, slow)
    assert rejects  # the recorder sees the oracle's wasted inserts
    assert fast_calls < len(calls) / 2


def _mixed_seed():
    """T(V) at n = 3 with v + w: v a singular vector generating a proper
    submodule, w a lowering image of v in another weight block."""
    m = tensor_field(gl_natural(3), 3)
    b = BorelOrder("natural", 3, "max")
    _, lowering = triangular_terms(b)
    cands = [v for vecs in singular_vectors(m, b).values() for v in vecs]
    v = min(cands, key=lambda v: submodule_generated(m, [v]).dim)
    w = next(w for w in (apply_gen(m, g, v) for g in lowering) if w)
    mixed = dict(v)
    for j, x in w.items():
        mixed[j] = mixed.get(j, 0) + x
    block_of = block_positions(m)
    assert len({block_of[j] for j in mixed}) == 2
    return m, lowering, mixed


def test_a_mixed_seed_generates_the_oracles_submodule():
    # the generators' algebra contains the Cartan, so the closure of v + w
    # is the closure of v and w; the pivots pin the span
    m, _, mixed = _mixed_seed()
    sub = submodule_generated(m, [mixed])
    want = closure_oracle(m, m.gen_keys(), [mixed])
    assert 0 < sub.dim == want.dim < m.dim
    assert set(sub.echelon.rows) == set(want.rows)


def test_closure_rejects_a_seed_that_mixes_weights():
    m, lowering, mixed = _mixed_seed()
    with pytest.raises(NonBasisElementError, match="mixes weight blocks"):
        module_closure(m, lowering, [mixed])


def test_singular_lines_of_the_exterior_module():
    m = lambda_module(3)
    b = BorelOrder("natural", 3, "max")
    sing = singular_blocks(m, triangular_terms(b)[0])
    assert set(sing) == {Weight.zero(),
                       Weight(((1, 1), (2, 1), (3, 1)))}
    assert all(len(vs) == 1 for vs in sing.values())


def test_singular_block_filter():
    m = lambda_module(3)
    b = BorelOrder("natural", 3, "max")
    sing = singular_blocks(m, triangular_terms(b)[0],
                           block_filter=lambda w: not w)
    assert set(sing) == {Weight.zero()}


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
    _assert_same_kernels(build(), order)


def _assert_same_kernels(m, order):
    fast = singular_vectors(m, order)
    full = singular_blocks(m, raising_terms(order))
    assert fast.keys() == full.keys()
    assert fast
    for key, vecs in full.items():
        a, b = _span(fast[key]), _span(vecs)
        assert a.dim == b.dim == len(fast[key]) == len(vecs)
        assert not any(a.reduce(v) for v in vecs)
        assert not any(b.reduce(v) for v in fast[key])


@pytest.mark.parametrize("kind", ["natural", "interleaved"])
@pytest.mark.parametrize("ext,build", [
    ("max", lambda kind: kac_plus(gl_simple((1,), (1,), 3, order=kind), 3)),
    ("max", lambda kind: kac_plus(gl_simple((2,), (1,), 3, order=kind), 3)),
    ("max", lambda kind: kac_plus(gl_simple((), (1,), 4, order=kind), 4)),
    ("max", lambda kind: kac_plus(gl_simple((1,), (1,), 4, order=kind), 4)),
    ("min", lambda kind: kac_minus_truncated(
        gl_simple((1,), (1,), 4, order=kind), 4, 2)),
    ("min", lambda kind: kac_minus_truncated(gl_trivial(4), 4, 3)),
], ids=["K+(1|1)@3", "K+(2|1)@3", "K+(|1)@4", "K+(1|1)@4",
        "K-(1|1)@4,D=2", "K-(|)@4,D=3"])
def test_triangular_raising_sets_match_all_raising_operators(ext, build, kind):
    # the n+1 max terms on upward inductions, and the n min terms on
    # truncated downward inductions, a genuine module over W_{<=0}, which
    # holds every min raising term
    m = build(kind)
    _assert_same_kernels(m, BorelOrder(kind, m.rank, ext))


@pytest.mark.parametrize("build", [
    lambda: kac_plus(gl_simple((1,), (1,), 3), 3),
    lambda: tensor_field(gl_simple((1,), (1,), 3), 3),
    lambda: kac_minus_truncated(gl_simple((1,), (1,), 3), 3, 2),
], ids=["K+(1|1)@3", "T(1|1)@3", "K-(1|1)@3,D=2"])
def test_sorted_block_equations_give_the_unsorted_kernels(build):
    # block_kernel feeds its equations by descending leading unknown; the
    # reduced-row-echelon basis is unique, so every block's kernel is, item
    # for item, the one that the generator order gives
    m = build()
    gen_sets = [m.gen_keys()]
    for ext in ("min", "max"):
        gen_sets += triangular_terms(BorelOrder("natural", m.rank, ext))
    nonzero = 0
    for cols in m.weight_blocks().values():
        for gens in gen_sets:
            want = block_kernel_unsorted(m, cols, gens)
            got = spanops.block_kernel(m, cols, gens)
            assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
            nonzero += bool(want)
    assert nonzero


@pytest.mark.parametrize("lam,mu", [p for p in PAIRS_LE2
                                    if p[0].length + p[1].length <= 3],
                         ids=str)
def test_lowering_closure_matches_the_generated_submodule(lam, mu):
    # the closure oracle of is_simple closes each singular candidate under
    # the n lowering terms; the closure under the whole algebra's
    # generators is the reference
    m = kac_plus(gl_simple(lam, mu, 3), 3)
    b = BorelOrder("natural", 3, "max")
    _, lowering = triangular_terms(b)
    cands = [v for vecs in singular_vectors(m, b).values() for v in vecs]
    assert cands
    for v in cands:
        assert (module_closure(m, lowering, [v]).dim
                == submodule_generated(m, [v]).dim)


def test_burnside_detects_simplicity():
    full = lambda_module(2)
    assert not burnside_full(full, local_terms(2))
    from superw.modules import quotient_module, submodule_generated
    q = quotient_module(full, submodule_generated(full, [{0: Fraction(1)}]))
    assert burnside_full(q, local_terms(2))


@pytest.mark.parametrize("build", [
    lambda: kac_plus(gl_simple((), (1,), 3), 3),
    lambda: kac_plus(gl_simple((1,), (1,), 3), 3),
    lambda: tensor_field(gl_natural(3), 3),
    lambda: tensor_field(gl_simple((1,), (1,), 3, order="interleaved"), 3),
], ids=["K+(|1)", "K+(1|1)", "T(V)", "T(1|1)"])
def test_singular_blocks_match_the_dense_kernel(build):
    # every block, also those whose kernel is zero, against dense
    # Gauss-Jordan on the same equations
    m = build()
    gens, _ = triangular_terms(BorelOrder("natural", 3, "max"))
    sing = singular_blocks(m, gens)
    zero = 0
    for key, cols in m.weight_blocks().items():
        rows = {}
        for g in gens:
            for t, c in enumerate(cols):
                for r, x in m.column(g, c).items():
                    rows.setdefault((g, r), {})[t] = x
        want = [{cols[t]: x for t, x in v.items()}
                for v in dense_kernel(list(rows.values()), len(cols))]
        assert sing.get(key, []) == want, key
        zero += not want
    assert sing and zero


def _small_modules():
    """Modules of dimension at most 96, small enough for the operator-span
    oracle: K+(V(lam|mu)) at n=3,4 and T(V(lam|mu)) at n=2 for
    |lam|,|mu| <= 2, the exterior modules and the adjoint at n=2."""
    out = []
    for n in (3, 4):
        for lam, mu in PAIRS_LE2:
            if (lam.length + mu.length <= n
                    and 2 ** n * weyl_dim(stable_highest_weight(
                        lam, mu, "natural", n).dense(n), n) <= 96):
                out.append(pytest.param(
                    lambda lam=lam, mu=mu, n=n: kac_plus(gl_simple(lam, mu, n), n),
                    id=f"K+({lam}|{mu})@{n}"))
    for lam, mu in PAIRS_LE2:
        if max(lam.length, mu.length) <= 1:
            out.append(pytest.param(
                lambda lam=lam, mu=mu: tensor_field(
                    gl_simple(lam, mu, 2, order="interleaved"), 2),
                id=f"T({lam}|{mu})@2"))
    out.append(pytest.param(lambda: lambda_module(2), id="Lambda@2"))
    out.append(pytest.param(lambda: lambda_module(3), id="Lambda@3"))
    out.append(pytest.param(_exterior_mod_constants, id="Lambda/1@3"))
    out.append(pytest.param(lambda: adjoint_module(2), id="adjoint@2"))
    return out


@pytest.mark.parametrize("build", _small_modules())
def test_is_simple_agrees_with_the_operator_span(build):
    m = build()
    assert m.dim <= 96
    verdict = is_simple(m)
    assert verdict.method != "operator-span"
    assert verdict.simple == burnside_full(m, generating_terms(m.rank))


def test_several_generating_singular_lines_mean_not_simple(monkeypatch):
    # unreachable in a genuine module, where a generating singular vector
    # spans the top weight space; feed is_simple two lines reported to
    # generate, and expect the theory's verdict
    import superw.modules as mods
    q = _exterior_mod_constants()
    b = BorelOrder("natural", 3, "max")
    real = singular_vectors(q, b)
    assert len(real) == 1
    key, (top,) = next(iter(real.items()))
    other = next(j for j in range(q.dim) if q.weights[j] != key)
    fake = {key: [top], q.weights[other]: [{other: Fraction(1)}]}
    monkeypatch.setattr(mods, "singular_vectors", lambda m, b: fake)
    monkeypatch.setattr(mods, "generates", lambda m, w, v, b: True)
    verdict = is_simple(q)
    assert not verdict.simple
    assert verdict.method == "highest-weight" and verdict.witness is None


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
    k = dual_module(kac_plus(dual_module(x), 3))
    homs = hom_basis(t, k, local_terms(3))
    assert len(homs) == 1
    (phi,) = homs
    for g in local_terms(3):
        for j in range(t.dim):
            e = {j: Fraction(1)}
            assert hom_value(phi, apply_gen(t, g, e)) == apply_gen(k, g, hom_value(phi, e))


# the generating set against the three lowest degrees as the reference:
# a set that failed to generate would close smaller spans and admit more
# intertwiners


@pytest.mark.parametrize("lam,mu,n,dim", [
    ((1,), (1,), 4, 240), ((1,), (), 4, 15), ((2,), (), 4, 49),
    ((), (1,), 3, 24)], ids=["(1|1)", "(1|)", "(2|)", "(|1)"])
def test_closure_agrees_with_the_lowest_degrees(lam, mu, n, dim):
    sub = extract_L_minus_oracle(lam, mu, n)
    t = sub.parent
    seed = sub.echelon.rows[sub.echelon.order[0]]
    small = module_closure(t, generating_terms(n), [seed])
    local = module_closure(t, local_terms(n), [seed])
    assert small.dim == local.dim == sub.dim == dim
    assert set(small.rows) == set(local.rows) == set(sub.echelon.rows)
    assert not any(local.reduce(r) for r in small.rows.values())
    assert not any(small.reduce(r) for r in local.rows.values())


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("base", [
    gl_trivial, gl_natural, gl_conatural,
    lambda n: gl_simple((1,), (1,), n)], ids=["C", "V", "V*", "V(1|1)"])
def test_duality_homs_agree_with_the_lowest_degrees(base, n):
    x = base(n)
    t = tensor_field(x, n)
    k = dual_module(kac_plus(dual_module(x), n))
    homs = hom_space(t, k)
    assert len(homs) == 1
    assert homs == hom_basis(t, k, local_terms(n))


def _duality_pair(base):
    def make(n):
        x = base(n)
        return tensor_field(x, n), dual_module(kac_plus(dual_module(x), n))
    return make


HOM_PAIRS = {
    "T(C)->K+(C*)*": _duality_pair(gl_trivial),
    "T(V)->K+(V*)*": _duality_pair(gl_natural),
    "T(V*)->K+(V)*": _duality_pair(gl_conatural),
    "T(V(1|1))->K+(V(1|1)*)*": _duality_pair(lambda n: gl_simple((1,), (1,), n)),
    "Lambda->Lambda*": lambda n: (lambda_module(n), dual_module(lambda_module(n))),
    "End(Lambda+Lambda)": lambda n: (direct_sum(lambda_module(n), lambda_module(n)),) * 2,
    "T(C)->Lambda": lambda n: (tensor_field(gl_trivial(n), n), lambda_module(n)),
    "End(adjoint)": lambda n: (adjoint_module(n),) * 2,
    "End(L-(1|1))": lambda n: (extract_L_minus_oracle((1,), (1,), n).module(),) * 2,
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("pair", sorted(HOM_PAIRS))
def test_hom_space_matches_the_oracle(pair, n):
    # the minimal generating set and the sorted equations against every
    # basis term in generator order: the reduced-row-echelon basis of one
    # solution space, so the maps are equal, not just equally many
    a, b = HOM_PAIRS[pair](n)
    homs = hom_space(a, b)
    assert homs == hom_basis_oracle(a, b)
    expected = {"Lambda->Lambda*": 0, "End(Lambda+Lambda)": 4}.get(pair, 1)
    assert len(homs) == expected
    # every pair shares a weight, so even the empty hom space is solved
    assert set(a.weight_blocks()) & set(b.weight_blocks())


@pytest.mark.parametrize("lam,dim", [((1,), 15), ((2,), 49)],
                         ids=["(1|)", "(2|)"])
def test_proper_simple_passes_the_full_bracket_check(lam, dim):
    # the span closed over the small set is invariant under every local
    # term, so its restricted action satisfies all their brackets
    sub = extract_L_minus_oracle(lam, (), 4)
    assert not sub.full and sub.dim == dim
    assert check_representation(sub.module()) == []


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


@pytest.mark.parametrize("n", [2, 3])
def test_iso_check_rejects_a_split_module_on_a_hom_line(n):
    # Lambda(n) is a non-split extension of Lambda(n)/C by the constants C:
    # same character as the direct sum, and Hom is the line through the
    # projection onto Lambda(n)/C, which is not invertible
    lam = lambda_module(n)
    top = quotient_module(lam, submodule_generated(lam, [{0: 1}]))
    split = direct_sum(trivial_module(n), top)
    assert check_representation(split) == []
    assert split.character() == lam.character()
    assert len(hom_space(lam, split)) == 1
    assert iso_check_oracle(lam, split) is None


def test_iso_check_refuses_a_larger_hom_space_without_an_invertible_basis_map():
    # End(Lambda(2) (+) Lambda(2)) is the 2 x 2 matrices; its echelon basis
    # is the four matrix units, none invertible, though the identity is
    s = direct_sum(lambda_module(2), lambda_module(2))
    assert len(hom_space(s, s)) == 4
    with pytest.raises(IsomorphismUndecidedError, match="4-dimensional"):
        iso_check_oracle(s, s)
