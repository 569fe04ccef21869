"""Sign bookkeeping, multiplication and formatting in the exterior
algebra, on term dicts, against the element class the library kept
before (``helpers.GrassmannElement``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superw.grassmann import (format_monomial, format_terms, gmul, indices_of,
                              merge_sign, removal_sign)
from superw.suite import random_homogeneous
from superw.tensorfields import lambda_module
from superw.walgebra import WElement, format_welement

from helpers import (GrassmannElement, apply_partial, basis, degree,
                     format_element, format_welement_oracle, generator,
                     gmul_oracle, mask_of, parse_monomial, w_apply_oracle)

masks = st.integers(min_value=0, max_value=255)


def merge_sign_oracle(a: int, b: int) -> int:
    """Count inversions by concatenating the index lists directly."""
    if a & b:
        return 0
    seq = list(indices_of(a)) + list(indices_of(b))
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions & 1 else 1


@given(masks, masks)
def test_merge_sign_matches_inversion_count(a, b):
    assert merge_sign(a, b) == merge_sign_oracle(a, b)


@given(masks)
def test_merge_with_unit(a):
    assert merge_sign(a, 0) == 1
    assert merge_sign(0, a) == 1


@given(masks, masks)
def test_merge_sign_overlap_is_zero(a, b):
    if a & b:
        assert merge_sign(a, b) == 0


def test_removal_sign_counts_lower_bits():
    assert removal_sign(1, 0b111) == 1
    assert removal_sign(2, 0b111) == -1
    assert removal_sign(3, 0b111) == 1
    assert removal_sign(3, 0b101) == -1


@given(masks, st.integers(min_value=1, max_value=8))
def test_removal_sign_reattaches_generator(mask, i):
    # xi_i * xi^(rest) picks up exactly the sign that removing i recorded
    bit = 1 << (i - 1)
    if not mask & bit:
        return
    rest = mask ^ bit
    assert gmul(generator(i).terms, {rest: 1}) == {mask: removal_sign(i, mask)}


@given(masks, masks, masks)
def test_gmul_associative(a, b, c):
    f, g, h = ({m: 1} for m in (a, b, c))
    assert gmul(gmul(f, g), h) == gmul(f, gmul(g, h))


@given(masks, masks)
def test_gmul_supercommutative(a, b):
    sign = -1 if (degree(a) & 1) and (degree(b) & 1) else 1
    assert gmul({a: 1}, {b: 1}) == {m: sign * c for m, c in gmul({b: 1}, {a: 1}).items()}


def test_generators_square_to_zero():
    for i in range(1, 6):
        xi = generator(i).terms
        assert gmul(xi, xi) == {}


def test_apply_partial_is_odd_derivation():
    f = GrassmannElement({0b011: 1})   # xi1 xi2
    g = GrassmannElement({0b100: 2})   # 2 xi3
    lhs = apply_partial(1, f * g)
    rhs = apply_partial(1, f) * g + f * apply_partial(1, g)
    assert lhs == rhs
    assert apply_partial(1, f).terms == {0b010: 1}
    assert apply_partial(2, f).terms == {0b001: -1}


def test_basis_sizes():
    assert len(basis(4)) == 16
    assert [len(basis(4, k)) for k in range(5)] == [1, 4, 6, 4, 1]


def test_mask_roundtrip():
    assert mask_of(indices_of(0b1011)) == 0b1011
    assert indices_of(mask_of([2, 5])) == (2, 5)


@given(masks)
def test_monomial_format_parse_roundtrip(m):
    assert parse_monomial(format_monomial(m)) == m


def test_scalar_arithmetic():
    f = GrassmannElement({0b1: 1, 0b10: 2})
    assert (Fraction(1, 2) * f).terms == {0b1: Fraction(1, 2), 0b10: 1}
    assert (f - f) == GrassmannElement()
    assert format_element(GrassmannElement()) == "0"


def test_inhomogeneous_degree_raises():
    f = GrassmannElement({0b1: 1, 0b11: 1})
    with pytest.raises(ValueError):
        f.degree()


def same(f, g):
    """Equal terms in the same insertion order."""
    return list(f.terms.items()) == list(g.terms.items())


def w_apply(x, f):
    """x acting on f through Lambda(n), where x^f sits at index f."""
    return GrassmannElement._of(lambda_module(x.rank).act(x, f.terms))


def random_grassmann(rng, n):
    return GrassmannElement({rng.randrange(1 << n): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(rng.randint(1, 4))})


def format_grassmann(terms):
    """The Leibniz counterexample's formatting of a term dict."""
    return format_terms(terms, lambda m: (m.bit_count(), m), format_monomial)


@pytest.mark.parametrize("n", [3, 6, 7])
def test_products_and_actions_match_the_oracles(n):
    rng = random.Random(300 + n)
    for _ in range(400):
        f, g = random_grassmann(rng, n), random_grassmann(rng, n)
        x = random_homogeneous(rng, n)
        fg, want = gmul(f.terms, g.terms), gmul_oracle(f, g)
        assert list(fg.items()) == list(want.terms.items())
        assert same(w_apply(x, f), w_apply_oracle(x, f))
        assert same(w_apply(x, GrassmannElement._of(fg)), w_apply_oracle(x, want))
        # one formatter for both term dicts, fractional coefficients and
        # the unit monomial included
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert format_grassmann(f.terms) == format_element(f)
        assert format_grassmann(fg) == format_element(want)
        assert format_welement(q * x) == format_welement_oracle(q * x)


def test_formats_of_the_zero_the_unit_and_fractions():
    cases = [({}, "0"), ({0: 1}, "1"), ({0: -1}, "-1"),
             ({0: Fraction(3, 2), 0b101: -1}, "3/2 - x1^x3"),
             ({0b10: Fraction(-1, 2), 0: -2, 0b1: 1}, "-2 + x1 - 1/2*x2")]
    for terms, want in cases:
        assert format_grassmann(terms) == format_element(GrassmannElement(terms)) == want
    for terms in ({}, {(0, 1): Fraction(-1, 2)}, {(0b11, 2): 1, (0, 3): Fraction(5, 3)}):
        x = WElement(3, terms)
        assert format_welement(x) == format_welement_oracle(x)


def test_grassmann_results_survive_the_validating_constructor():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.choice((3, 6))
        f, g = random_grassmann(rng, n), random_grassmann(rng, n)
        x = random_homogeneous(rng, n)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for out in (GrassmannElement._of(gmul(f.terms, g.terms)), w_apply(x, f),
                    f + g, f + (-f), f - g, -f, q * f, f * q, 0 * f):
            assert all(out.terms.values())
            assert same(GrassmannElement(out.terms), out)
