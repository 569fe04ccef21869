"""The Lie superalgebra of superderivations of a rank-n Grassmann algebra.

Elements are sums sum_i P_i d_i with P_i Grassmann polynomials, acting on
the algebra by f -> sum_i P_i * d_i(f); that action is the module
Lambda(n) = T(C) of ``tensorfields.lambda_module``.  A basis term is a pair
(monomial mask, target index j) standing for x^mask d_j.  The term has
Z-degree |mask| - 1 and parity (|mask| - 1) mod 2; components range over
degrees -1 .. n-1 with dim_k = C(n, k+1) * n.

The superbracket is operator composition:

    [x, y] = x o y - (-1)^{p(x) p(y)} y o x.

On basis terms the composition collapses to the closed form

    [x^a d_j, x^b d_l] = x^a d_j(x^b) d_l - (-1)^{p(x)p(y)} x^b d_l(x^a) d_j

because the second-order parts of the two compositions cancel; the test
suite checks this identity against literal composition on every basis
monomial at low rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from numbers import Rational
from typing import Iterable, Mapping, Union

from .errors import (
    InhomogeneousError,
    RankMismatchError,
)
from .grassmann import (
    Coeff,
    Monomial,
    format_monomial,
    format_terms,
    indices_of,
    inversion_mask,
)
from .weights import ORDER_KINDS, Weight, order_sequence

Term = tuple[Monomial, int]


def term_degree(term: Term) -> int:
    return term[0].bit_count() - 1


def term_parity(term: Term) -> int:
    return (term[0].bit_count() - 1) & 1


@lru_cache(maxsize=None)
def term_weight(term: Term) -> Weight:
    mask, j = term
    return Weight([(i, 1) for i in indices_of(mask)] + [(j, -1)])


def term_key(term: Term) -> tuple[int, int, int]:
    """Deterministic order on basis terms: by degree, then mask, then target."""
    return (term_degree(term), term[0], term[1])


def format_term(term: Term) -> str:
    mask, j = term
    if mask == 0:
        return f"d{j}"
    return f"{format_monomial(mask)} d{j}"


class WElement:
    """Rational combination of basis terms at a fixed rank."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Union[Mapping[Term, Coeff], Iterable[tuple[Term, Coeff]], None] = None):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        self.rank = rank
        acc: dict[Term, Coeff] = {}
        if terms:
            items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
            for t, c in items:
                mask, j = t
                if not (1 <= j <= rank) or mask >> rank:
                    raise ValueError(f"term {t} out of range at rank {rank}")
                if c:
                    nc = acc.get(t, 0) + c
                    if nc:
                        acc[t] = nc
                    else:
                        acc.pop(t, None)
        self.terms = acc

    @classmethod
    def _of(cls, rank: int, terms: dict[Term, Coeff]) -> "WElement":
        """Wrap a dict of in-range terms with no zero coefficient, unchecked."""
        x = object.__new__(cls)
        x.rank = rank
        x.terms = terms
        return x

    @classmethod
    def matrix_unit(cls, rank: int, i: int, j: int) -> "WElement":
        """The degree-zero element x_i d_j, the image of the matrix unit E_ij."""
        return cls(rank, {(1 << (i - 1), j): 1})

    def _check(self, other: "WElement"):
        if self.rank != other.rank:
            raise RankMismatchError(f"ranks differ: {self.rank} vs {other.rank}")

    def __add__(self, other: "WElement") -> "WElement":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            nc = out.get(t, 0) + c
            if nc:
                out[t] = nc
            else:
                out.pop(t, None)
        return WElement._of(self.rank, out)

    def __sub__(self, other: "WElement") -> "WElement":
        return self + (-other)

    def __neg__(self) -> "WElement":
        return WElement._of(self.rank, {t: -c for t, c in self.terms.items()})

    def __mul__(self, other) -> "WElement":
        if isinstance(other, Rational):
            if not other:
                return WElement._of(self.rank, {})
            return WElement._of(self.rank, {t: c * other for t, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_welement(self)

    def __repr__(self) -> str:
        return f"WElement({self.rank}, {self.terms!r})"


@lru_cache(maxsize=None)
def _term_table(n: int, k: int | None) -> tuple[Term, ...]:
    """basis_terms' table, generated in term_key order: degree, mask, target."""
    if k is None:
        return tuple(t for d in range(-1, n) for t in _term_table(n, d))
    return tuple((m, j) for m in range(1 << n) if m.bit_count() == k + 1
                 for j in range(1, n + 1))


def basis_terms(n: int, k: int | None = None) -> list[Term]:
    """Basis terms at rank n, optionally restricted to Z-degree k: a fresh
    list in term_key order, drawn from a table built once per (n, k)."""
    if k is not None and not (-1 <= k <= n - 1):
        return []
    return list(_term_table(n, k))


def component_dim(n: int, k: int) -> int:
    return comb(n, k + 1) * n if -1 <= k <= n - 1 else 0


def term_bracket(xt: Mapping[Term, Coeff], yt: Mapping[Term, Coeff]) -> dict[Term, Coeff]:
    """The superbracket on term dicts, the kernel of ``bracket`` and of the
    Jacobi defect: the module docstring's closed form, one pass over the
    term pairs into a fresh dict without zeros, in order of first hit.  A
    hit x^a d_j(x^b) = +-x^rem, rem = b minus x_j, carries the removal sign
    (popcount of b below x_j) and the merge sign of x^a x^rem, whose
    parities add, so one popcount of their xor decides it."""
    out: dict[Term, Coeff] = {}
    yterms = yt.items()
    for (a, j), ca in xt.items():
        a_even = not a.bit_count() & 1  # x^a d_j is odd
        jbit = 1 << (j - 1)
        for (b, l), cb in yterms:
            if b & jbit:
                rem = b ^ jbit
                if not a & rem:
                    t = (a | rem, l)
                    c = ca * cb
                    if ((inversion_mask(a) & rem) ^ (b & (jbit - 1))).bit_count() & 1:
                        c = -c
                    nc = out.get(t, 0) + c
                    if nc:
                        out[t] = nc
                    else:
                        out.pop(t, None)
            lbit = 1 << (l - 1)
            if a & lbit:
                rem = a ^ lbit
                if not b & rem:
                    t = (b | rem, j)
                    c = ca * cb
                    # -(-1)^{p(x)p(y)} times the hit's sign
                    odd = ((inversion_mask(b) & rem) ^ (a & (lbit - 1))).bit_count()
                    if not (odd + (a_even and not b.bit_count() & 1)) & 1:
                        c = -c
                    nc = out.get(t, 0) + c
                    if nc:
                        out[t] = nc
                    else:
                        out.pop(t, None)
    return out


def bracket(x: WElement, y: WElement) -> WElement:
    """Superbracket by composition: the rank check, then ``term_bracket``."""
    x._check(y)
    return WElement._of(x.rank, term_bracket(x.terms, y.terms))


def parity(x: WElement) -> int:
    masks = iter(x.terms)
    for a, _ in masks:
        for b, _ in masks:  # the terms after the first
            if (a.bit_count() ^ b.bit_count()) & 1:
                raise InhomogeneousError("element mixes parities")
        return (a.bit_count() - 1) & 1
    raise InhomogeneousError("zero element has no parity")


def graded_jacobi_defect(x: WElement, y: WElement, z: WElement, kernel=term_bracket) -> WElement:
    """(-1)^{p(x)p(z)}[x,[y,z]] + cyclic; zero exactly when Jacobi holds.
    kernel is a bracket on term dicts.  The first signed double bracket is
    the output dict, and the other two are merged into it whole.  The
    defect is trilinear, so it is zero when an argument is, although zero
    has no parity."""
    x._check(y)
    x._check(z)
    xt, yt, zt = x.terms, y.terms, z.terms
    if not (xt and yt and zt):
        return WElement._of(x.rank, {})
    px, py, pz = parity(x), parity(y), parity(z)
    out = kernel(xt, kernel(yt, zt))
    if px & pz:
        out = {t: -c for t, c in out.items()}
    for odd, w in ((py & px, kernel(yt, kernel(zt, xt))),
                   (pz & py, kernel(zt, kernel(xt, yt)))):
        for t, c in w.items():
            nc = out.get(t, 0) + (-c if odd else c)
            if nc:
                out[t] = nc
            else:
                out.pop(t, None)
    return WElement._of(x.rank, out)


@dataclass(frozen=True)
class BorelOrder:
    """A Borel datum: an index order on 1..n plus an extension flag.

    extension selects which operators count as raising beyond the positive
    degree-zero root vectors: "zero" adds nothing, "min" adjoins the d_i,
    "max" adjoins every basis term of positive Z-degree.

    Each simple pair (i, j) spans an sl2: e = x_i d_j, f = x_j d_i and
    h = E_ii - E_jj.  On a finite-dimensional module (Weyl's theorem, and
    f: V(m)_(k+2) -> V(m)_k is onto unless k = m), a weight vector e kills,
    or a weight space outside the image of f, has w_i >= w_j: singular
    vectors and lowering coinvariants sit at ``dominant`` weights only.
    """

    kind: str
    rank: int
    extension: str = "zero"
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.extension not in ("zero", "min", "max"):
            raise ValueError(f"unknown extension {self.extension!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        seq = self.sequence()
        object.__setattr__(self, "_pairs", tuple(zip(seq, seq[1:])))

    def sequence(self) -> list[int]:
        return order_sequence(self.kind, self.rank)

    def simple_pairs(self) -> list[tuple[int, int]]:
        return list(self._pairs)

    def dominant(self, w: Weight) -> bool:
        """Whether w[s_k] >= w[s_(k+1)] for every simple pair of the order."""
        d = (0, *w) + (0,) * self.rank  # d[i] is w[i] for i <= rank, read in C
        for i, j in self._pairs:
            if d[i] < d[j]:
                return False
        return True


def lowering_roots(b: BorelOrder) -> tuple[Term, ...]:
    """The n-1 simple lowering root vectors x_{s_(k+1)} d_{s_k} of b, for
    k = n-1 down to 1, with s = b.sequence().  They generate the negative
    roots of gl(n) = W(n)_0 for b, so on a vector v that the positive
    roots kill, U(gl(n))v = U(n-)v (PBW) is the closure of v under them."""
    return tuple((1 << (j - 1), i) for i, j in b.simple_pairs()[::-1])


@lru_cache(maxsize=None)
def triangular_terms(b: BorelOrder) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """Lie generators (raising, lowering) of W(n) = n- + h + n+ for b, with
    s = b.sequence() and h the Cartan.  raising generates every raising
    basis term of b: the positive root vectors x_i d_j with i before j in
    s, plus every d_j for "min", or every term of positive degree for
    "max".  It is the simple root vectors x_{s_k} d_{s_(k+1)}, plus d_{s1}
    for "min", or for "max" the lowest weight vectors x_{s1}x_{sn} d_{s1},
    x_{s(n-1)}x_{sn} d_{s1} of W_1 (all of W_1 below rank 3).  A joint
    kernel of the generators is one of everything they generate, so the
    library needs no other raising set.  lowering generates n-, the
    negative roots plus what the extension leaves out of n+: for "max"
    W_{-1}, from d_{sn} and the n-1 ``lowering_roots``; for "min"
    W_{>=1}, from the ``lowering_roots`` and x_{s1}x_{s2} d_{sn},
    x_{s1}x_{s2} d_{s2} (all of W_1 below rank 3).  "zero", whose raising set is the positive roots alone, takes the
    lowering set of "max", so the two and h do not make up W(n).  The
    test suite verifies each claim by span up to rank 7.  Both are
    tuples, built once per datum."""
    s = b.sequence()
    raising = [(1 << (i - 1), j) for i, j in b.simple_pairs()]
    roots = lowering_roots(b)
    if b.extension == "min":
        raising.append((0, s[0]))
        if b.rank < 3:
            return tuple(raising), roots + tuple(basis_terms(b.rank, 1))
        top = 1 << (s[0] - 1) | 1 << (s[1] - 1)
        return tuple(raising), roots + ((top, s[-1]), (top, s[1]))
    if b.extension == "max":
        raising += basis_terms(b.rank, 1) if b.rank < 3 else [
            (1 << (i - 1) | 1 << (s[-1] - 1), s[0]) for i in (s[0], s[-2])]
    return tuple(raising), ((0, s[-1]),) + roots


def generating_terms(n: int) -> list[Term]:
    """A minimal Lie-generating set of the whole algebra: the basis below
    rank 3, else n+3 terms, d_n and x_n d_(n-1) followed by the n+1
    raising terms of ``triangular_terms`` for the natural "max" order.
    The other lowering terms x_(k+1) d_k are brackets of these, and
    h = [n+, n-].  Spans and even maps that the set preserves, the algebra
    preserves; the test suite checks up to rank 7 that the set generates
    and that no term of it can be dropped."""
    if n < 3:
        return basis_terms(n)
    raising, lowering = triangular_terms(BorelOrder("natural", n, "max"))
    return list(lowering[:2] + raising)


def format_welement(x: WElement) -> str:
    return format_terms(x.terms, term_key, format_term)
