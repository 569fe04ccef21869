"""Bracket arithmetic checked against operator composition.

The bracket is implemented in closed form; the reference here applies
both derivations to exterior elements and takes the graded commutator
of the results, so a sign slip in either route cannot hide.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from superw import walgebra
from superw.errors import InhomogeneousError, RankMismatchError
from superw.grassmann import merge_sign, removal_sign
from superw.linalg import RationalEchelon
from superw.suite import jacobi_failures, random_homogeneous, sign_bugged_bracket
from superw.walgebra import (BorelOrder, WElement, basis_terms, bracket,
                             component_dim, format_welement,
                             generating_terms, graded_jacobi_defect, parity,
                             term_bracket, term_key, term_weight,
                             triangular_terms)
from superw.weights import Weight

from helpers import (GrassmannElement, grading_element, parse_welement,
                     partial, positive_pairs, raising_terms, w_apply_oracle,
                     z_degree)


def composition_bracket_action(x, y, f):
    sign = -1 if parity(x) and parity(y) else 1
    return (w_apply_oracle(x, w_apply_oracle(y, f))
            - sign * w_apply_oracle(y, w_apply_oracle(x, f)))


def random_element(rng, n):
    return GrassmannElement({rng.randrange(1 << n): rng.randint(-3, 3)
                             for _ in range(3)})


def test_bracket_agrees_with_composition():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        x, y = random_homogeneous(rng, n), random_homogeneous(rng, n)
        f = random_element(rng, n)
        assert w_apply_oracle(bracket(x, y), f) == composition_bracket_action(x, y, f)


def test_bracket_graded_antisymmetry():
    rng = random.Random(12)
    for _ in range(200):
        x, y = random_homogeneous(rng, 4), random_homogeneous(rng, 4)
        sign = -1 if parity(x) and parity(y) else 1
        assert not (bracket(x, y) + sign * bracket(y, x)).terms


def test_jacobi_on_seeded_triples():
    rng = random.Random(13)
    for _ in range(300):
        x, y, z = (random_homogeneous(rng, 3) for _ in range(3))
        assert not graded_jacobi_defect(x, y, z).terms


def bracket_oracle(x, y):
    """The bracket as it stood before the flat kernel: the same closed form
    through the merge and removal signs, each hit accumulated by a closure,
    and the result rebuilt by the validating constructor."""
    x._check(y)
    out = {}

    def accumulate(t, c):
        nc = out.get(t, 0) + c
        if nc:
            out[t] = nc
        else:
            out.pop(t, None)

    for (a, j), ca in x.terms.items():
        pa = (a.bit_count() - 1) & 1
        jbit_a = 1 << (j - 1)
        for (b, l), cb in y.terms.items():
            pb = (b.bit_count() - 1) & 1
            c = ca * cb
            if b & jbit_a:
                rem = b ^ jbit_a
                s = removal_sign(j, b) * merge_sign(a, rem)
                if s:
                    accumulate((a | rem, l), s * c)
            lbit = 1 << (l - 1)
            if a & lbit:
                rem = a ^ lbit
                s = removal_sign(l, a) * merge_sign(b, rem)
                if s:
                    sign = 1 if (pa and pb) else -1
                    accumulate((b | rem, j), sign * s * c)
    return WElement(x.rank, out)


def jacobi_defect_oracle(x, y, z, bracket_fn=bracket_oracle):
    """The defect as it stood: three signed double brackets added as
    elements."""
    px, py, pz = parity(x), parity(y), parity(z)

    def sgn(p, q):
        return -1 if p & q else 1

    return (
        sgn(px, pz) * bracket_fn(x, bracket_fn(y, z))
        + sgn(py, px) * bracket_fn(y, bracket_fn(z, x))
        + sgn(pz, py) * bracket_fn(z, bracket_fn(x, y))
    )


def same(a, b):
    """Equal terms in the same insertion order: K+ columns read the order
    of bracket results."""
    return a.rank == b.rank and list(a.terms.items()) == list(b.terms.items())


def random_sum(rng, n):
    """A sum of homogeneous elements of mixed degrees, with fractions."""
    x = random_homogeneous(rng, n)
    for _ in range(rng.randint(0, 2)):
        x = x + Fraction(rng.randint(1, 5), rng.randint(1, 3)) * random_homogeneous(rng, n)
    return x


@pytest.mark.parametrize("n", range(1, 6))
def test_bracket_matches_the_oracle_on_every_basis_pair(n):
    elems = [WElement(n, {t: 1}) for t in basis_terms(n)]
    for x in elems:
        for y in elems:
            assert same(bracket(x, y), bracket_oracle(x, y))


@pytest.mark.parametrize("n", [6, 7])
def test_bracket_matches_the_oracle_on_random_and_nested_brackets(n):
    rng = random.Random(100 + n)
    for _ in range(300):
        x, y, z = (random_sum(rng, n) for _ in range(3))
        yz = bracket_oracle(y, z)
        assert same(bracket(y, z), yz)
        assert same(bracket(x, yz), bracket_oracle(x, yz))
        assert same(bracket(yz, x), bracket_oracle(yz, x))
        assert same(bracket(bracket(x, yz), yz), bracket_oracle(bracket_oracle(x, yz), yz))


def as_kernel(br, n):
    """A bracket of elements at rank n as a bracket on term dicts."""
    return lambda xt, yt: br(WElement(n, xt), WElement(n, yt)).terms


def as_element_bracket(kernel):
    """A bracket on term dicts as a bracket of elements."""
    return lambda x, y: WElement(x.rank, kernel(x.terms, y.terms))


def defect_pairs(n):
    """(kernel of the defect, element bracket of the oracle) pairs."""
    return [(term_bracket, bracket),
            (as_kernel(bracket_oracle, n), bracket_oracle),
            (sign_bugged_bracket, as_element_bracket(sign_bugged_bracket))]


@pytest.mark.parametrize("n", [4, 6])
def test_jacobi_defect_matches_the_oracle(n):
    rng = random.Random(200 + n)
    for _ in range(300):
        x, y, z = (random_homogeneous(rng, n) for _ in range(3))
        for kernel, br in defect_pairs(n):
            assert same(graded_jacobi_defect(x, y, z, kernel),
                        jacobi_defect_oracle(x, y, z, bracket_fn=br))


def test_jacobi_defect_keeps_the_oracle_order_under_a_flipped_merge_sign(monkeypatch):
    # with the bracket's merge sign flipped the defects are nonzero, so the
    # order in which the three double brackets merge shows in the output:
    # adding their terms into one shared dict as they come reorders one of
    # these 441 nonzero defects
    flipped = walgebra.inversion_mask
    monkeypatch.setattr(walgebra, "inversion_mask", lambda a: flipped(a) ^ 1)
    rng = random.Random(206)
    nonzero = 0
    for _ in range(3000):
        x, y, z = (random_homogeneous(rng, 6) for _ in range(3))
        got = graded_jacobi_defect(x, y, z)
        assert same(got, jacobi_defect_oracle(x, y, z, bracket_fn=bracket))
        nonzero += bool(got.terms)
    assert nonzero > 300


def test_results_survive_the_validating_constructor():
    """Every result built without validation holds only in-range terms
    with nonzero coefficients, in the order the constructor keeps."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.choice((3, 5, 6))
        x, y, z = (random_homogeneous(rng, n) for _ in range(3))
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for out in (bracket(x, y), bracket(x, bracket(y, z)), x + y, x + (-x),
                    x - y, -x, q * x, x * q, 0 * x,
                    graded_jacobi_defect(x, y, z),
                    graded_jacobi_defect(x, y, z, sign_bugged_bracket)):
            assert all(out.terms.values())
            assert same(WElement(out.rank, out.terms), out)


def test_rank_mismatch_still_raises():
    x, y = WElement(3, {(0, 1): 1}), WElement(4, {(0b11, 1): 1})
    for op in (bracket, WElement.__add__, WElement.__sub__):
        with pytest.raises(RankMismatchError):
            op(x, y)


def test_jacobi_defect_with_a_zero_argument_is_zero():
    # trilinear, so zero although zero has no parity; the ranks still count
    rng = random.Random(20)
    zero = WElement(3)
    with pytest.raises(InhomogeneousError):
        parity(zero)
    for _ in range(20):
        y, z = random_homogeneous(rng, 3), random_homogeneous(rng, 3)
        for args in ((zero, y, z), (y, zero, z), (y, z, zero), (zero, zero, y)):
            out = graded_jacobi_defect(*args)
            assert out == zero and out.rank == 3
    mixed = WElement(3, {(0, 1): 1, (0b1, 1): 1})
    assert graded_jacobi_defect(zero, mixed, y) == zero
    with pytest.raises(InhomogeneousError):
        graded_jacobi_defect(mixed, y, z)
    for args in ((WElement(4), y, z), (zero, WElement(4, {(0, 1): 1}), z),
                 (zero, y, WElement(4))):
        with pytest.raises(RankMismatchError):
            graded_jacobi_defect(*args)


def test_sign_bug_is_still_caught():
    assert jacobi_failures(4, 200, kernel=sign_bugged_bracket, limit=1)


def test_component_dims():
    assert [component_dim(3, k) for k in range(-1, 3)] == [3, 9, 9, 3]
    for n in range(1, 7):
        for k in range(-1, n):
            assert component_dim(n, k) == comb(n, k + 1) * n
            assert len(basis_terms(n, k)) == component_dim(n, k)
        assert len(basis_terms(n)) == n * 2 ** n


def sorted_basis_terms(n, k=None):
    """Oracle: the sort-based construction the per-rank table replaced."""
    if k is None:
        out = [(m, j) for m in range(1 << n) for j in range(1, n + 1)]
    else:
        if not (-1 <= k <= n - 1):
            return []
        out = [(m, j) for m in range(1 << n) if m.bit_count() == k + 1
               for j in range(1, n + 1)]
    out.sort(key=term_key)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_terms_match_the_sorted_oracle(n):
    for k in [None, *range(-2, n + 1)]:
        assert basis_terms(n, k) == sorted_basis_terms(n, k)


def test_basis_terms_returns_a_fresh_list():
    for k in (None, 1):
        first = basis_terms(4, k)
        first.append((0, 1))
        first += first
        assert basis_terms(4, k) == sorted_basis_terms(4, k)
        assert basis_terms(4, k) is not basis_terms(4, k)


@pytest.mark.parametrize("n", [4, 6])
def test_random_stream_is_unchanged_by_the_table(n, monkeypatch):
    def draw():
        return [
            random_homogeneous(rng, n)
            for rng in (random.Random(s) for s in range(20))
            for _ in range(100)
        ]

    table = draw()
    monkeypatch.setattr("superw.suite.basis_terms", sorted_basis_terms)
    assert draw() == table


def test_degree_zero_is_matrix_algebra():
    e12 = WElement.matrix_unit(3, 1, 2)
    e21 = WElement.matrix_unit(3, 2, 1)
    h = bracket(e12, e21)
    assert h.terms == {(0b001, 1): 1, (0b010, 2): -1}
    # partial against a quadratic coefficient
    d1 = partial(3, 1)
    q = WElement(3, {(0b011, 1): 1})
    assert bracket(d1, q).terms == {(0b010, 1): 1}


def test_bracket_with_cartan_reads_weight():
    for t in basis_terms(3):
        h = WElement.matrix_unit(3, 2, 2)
        got = bracket(h, WElement(3, {t: 1}))
        assert got.terms.get(t, 0) == term_weight(t)[2]


def test_grading_element_eigenvalues():
    e = grading_element(4)
    for t in basis_terms(4):
        x = WElement(4, {t: 1})
        got = bracket(e, x)
        want = z_degree(x)
        assert got.terms.get(t, 0) == want or (want == 0 and not got.terms)


def test_borel_orders():
    assert BorelOrder("natural", 4, "min").sequence() == [1, 2, 3, 4]
    assert BorelOrder("interleaved", 5, "min").sequence() == [1, 3, 5, 4, 2]
    assert BorelOrder("interleaved", 4, "max").sequence() == [1, 3, 4, 2]
    nat = BorelOrder("natural", 3, "zero")
    assert set(positive_pairs(nat)) == {(1, 2), (1, 3), (2, 3)}
    assert set(nat.simple_pairs()) == {(1, 2), (2, 3)}
    inter = BorelOrder("interleaved", 4, "zero")
    assert set(inter.simple_pairs()) == {(1, 3), (3, 4), (4, 2)}


def test_raising_terms_extensions():
    n = 3
    lo = raising_terms(BorelOrder("natural", n, "min"))
    assert {t for t in lo if t[0] == 0} == {(0, 1), (0, 2), (0, 3)}
    hi = raising_terms(BorelOrder("natural", n, "max"))
    degs = {len(bin(m).replace("0b", "").replace("0", "")) - 1 for m, _ in hi}
    assert degs >= {1, 2}


def bracket_span(terms, n: int) -> tuple[RationalEchelon, dict]:
    """Linear span of the terms closed under bracketing with them, which
    holds every right-normed bracket of the terms; returns the echelon
    and the basis-term index its coordinates use."""
    gens = [WElement(n, {t: 1}) for t in terms]
    index = {t: i for i, t in enumerate(basis_terms(n))}
    ech = RationalEchelon()
    queue = []
    for x in gens:
        if ech.insert({index[t]: c for t, c in x.terms.items()}) is not None:
            queue.append(x)
    while queue:
        x = queue.pop()
        for g in gens:
            y = bracket(g, x)
            if y.terms and ech.insert(
                    {index[t]: c for t, c in y.terms.items()}) is not None:
                queue.append(y)
    return ech, index


def test_bracket_span_is_linear():
    # x1 d2 and x2 d1 span sl(2): x1 d1 - x2 d2 is one direction, not two
    ech, _ = bracket_span([(0b01, 2), (0b10, 1)], 4)
    assert ech.dim == 3


def spans_exactly(terms, target, n: int) -> bool:
    ech, index = bracket_span(terms, n)
    return (ech.dim == len(target)
            and not any(ech.reduce({index[t]: 1}) for t in target))


def lowering_target(b: BorelOrder) -> list:
    """n- opposite the extension: the negative roots plus W_{>=1} for
    "min", or plus W_{-1} for "max"."""
    rest = ([t for k in range(1, b.rank) for t in basis_terms(b.rank, k)]
            if b.extension == "min" else basis_terms(b.rank, -1))
    return [(1 << (j - 1), i) for i, j in positive_pairs(b)] + rest


def test_generating_terms_generate_the_nilradical():
    """Brackets of the raising set span exactly the raising terms, and
    those of the lowering set the negative roots plus W_{>=1} for "min"
    or plus W_{-1} for "max", up to rank 7 in both orders."""
    for n in range(1, 8):
        for kind in ("natural", "interleaved"):
            for ext in ("min", "max"):
                b = BorelOrder(kind, n, ext)
                raising, lowering = triangular_terms(b)
                assert spans_exactly(raising, raising_terms(b), n), b
                assert spans_exactly(lowering, lowering_target(b), n), b
                if n >= 3:
                    assert len(raising) == n + (ext == "max"), b
                    assert len(lowering) == n + (ext == "min"), b


@pytest.mark.parametrize("kind", ["natural", "interleaved"])
@pytest.mark.parametrize("n", range(3, 8))
def test_triangular_terms_fail_without_any_one_term(n, kind):
    # each set is minimal, and swapping the extension's extra raising term,
    # d_{sn} in the "max" lowering set or x_{s1}x_{s2} d_{sn} in the "min"
    # one, for the opposite end of its string loses generation
    for ext in ("min", "max"):
        b = BorelOrder(kind, n, ext)
        s = b.sequence()
        raising, lowering = triangular_terms(b)
        for k in range(len(raising)):
            assert not spans_exactly(raising[:k] + raising[k + 1:],
                                     raising_terms(b), n), (ext, k)
        for k in range(len(lowering)):
            assert not spans_exactly(lowering[:k] + lowering[k + 1:],
                                     lowering_target(b), n), (ext, k)
        if ext == "min":
            wrong = (0, s[-1])
            low = (1 << (s[-2] - 1)) | (1 << (s[-1] - 1))
            swapped = lowering[:-2] + ((low, s[0]),) + lowering[-1:]
        else:
            wrong = ((1 << (s[0] - 1)) | (1 << (s[1] - 1)), s[-1])
            swapped = ((0, s[0]),) + lowering[1:]
        assert not spans_exactly(raising[:-1] + (wrong,), raising_terms(b), n)
        assert not spans_exactly(swapped, lowering_target(b), n)


@pytest.mark.parametrize("n", range(1, 8))
def test_generating_terms_generate_the_algebra(n):
    """The bracket span of the set is all n 2^n terms; from rank 3 on the
    set is d_n, x_n d_(n-1) and the raising terms of the natural max
    order, and it is minimal: without any one term it generates less."""
    gens = generating_terms(n)
    assert bracket_span(gens, n)[0].dim == n << n
    if n < 3:
        assert gens == basis_terms(n)
        return
    top, last = 1 << (n - 1), 1 << (n - 2)
    assert gens == ([(0, n), (top, n - 1)]
                    + [(1 << (k - 1), k + 1) for k in range(1, n)]
                    + [(1 | top, 1), (last | top, 1)])
    raising, _ = triangular_terms(BorelOrder("natural", n, "max"))
    assert tuple(gens[2:]) == raising
    for k in range(len(gens)):
        assert bracket_span(gens[:k] + gens[k + 1:], n)[0].dim < n << n, k


def test_format_parse_roundtrip():
    rng = random.Random(14)
    for _ in range(50):
        x = random_homogeneous(rng, 4)
        assert parse_welement(format_welement(x), 4) == x
    assert format_welement(WElement(2)) == "0"


def test_weight_of_terms():
    assert term_weight((0b101, 2)) == Weight(((1, 1), (3, 1), (2, -1)))
    assert term_weight((0, 3)) == Weight(((3, -1),))


def test_memoized_terms_and_weights_are_immutable():
    # term_weight and triangular_terms are memoized, so they hand out only
    # values that a caller cannot change; generating_terms copies its list
    for b in (BorelOrder("natural", 4, "max"), BorelOrder("interleaved", 2, "min"),
              BorelOrder("natural", 5)):
        raising, lowering = triangular_terms(b)
        assert type(raising) is type(lowering) is tuple
        assert all(type(t) is tuple for t in raising + lowering)
        assert triangular_terms(b) is triangular_terms(BorelOrder(b.kind, b.rank,
                                                                  b.extension))
        for t in raising + lowering:
            assert type(term_weight(t)) is Weight
            assert term_weight(t) is term_weight((t[0], t[1]))
    gens = generating_terms(4)
    assert type(gens) is list
    gens.clear()
    assert generating_terms(4) == [(0, 4), (8, 3), (1, 2), (2, 3), (4, 4), (9, 1), (12, 1)]
