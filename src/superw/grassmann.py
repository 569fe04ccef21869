"""Exact arithmetic in a finite rank Grassmann algebra.

A monomial in the generators x_1..x_n is an index bitmask: bit i-1 set
means x_i occurs.  Products carry the sign of the permutation sorting the
concatenated index sequences; coefficients are exact rationals (python
ints, widening to Fraction only when division appears upstream).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Iterable, Mapping, Union

from .errors import InhomogeneousError

Monomial = int
Coeff = Union[int, Fraction]


def degree(mono: Monomial) -> int:
    return mono.bit_count()


@lru_cache(maxsize=None)
def inversion_mask(a: Monomial) -> Monomial:
    """The sign kernel: bit k-1 is set when an odd number of the generators
    of x^a lie above x_k, so for disjoint a and b the product x^a * x^b is
    x^(a|b) times (-1)^popcount(inversion_mask(a) & b)."""
    s = 0
    while a:
        low = a & -a
        s ^= low - 1  # x_low sits above every position below it
        a ^= low
    return s


def merge_sign(a: Monomial, b: Monomial) -> int:
    """Sign of x^a * x^b relative to the sorted monomial x^(a|b); 0 on overlap."""
    if a & b:
        return 0
    return -1 if (inversion_mask(a) & b).bit_count() & 1 else 1


def removal_sign(i: int, mono: Monomial) -> int:
    """Sign picked up by the derivation d_i passing to position of x_i."""
    below = mono & ((1 << (i - 1)) - 1)
    return -1 if below.bit_count() & 1 else 1


def indices_of(mono: Monomial) -> tuple[int, ...]:
    out = []
    i = 1
    while mono:
        if mono & 1:
            out.append(i)
        mono >>= 1
        i += 1
    return tuple(out)


class GrassmannElement:
    """Finite rational combination of square-free monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Monomial, Coeff], Iterable[tuple[Monomial, Coeff]], None] = None):
        acc: dict[Monomial, Coeff] = {}
        if terms:
            items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
            for m, c in items:
                if c:
                    nc = acc.get(m, 0) + c
                    if nc:
                        acc[m] = nc
                    else:
                        acc.pop(m, None)
        self.terms = acc

    @classmethod
    def _of(cls, terms: dict[Monomial, Coeff]) -> "GrassmannElement":
        """Wrap a dict that already holds no zero coefficient, unchecked."""
        f = object.__new__(cls)
        f.terms = terms
        return f

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return GrassmannElement._of(out)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            return gmul(self, other)
        if isinstance(other, Rational):
            if not other:
                return GrassmannElement._of({})
            return GrassmannElement._of({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "GrassmannElement":
        if isinstance(other, Rational):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, GrassmannElement) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        degs = {degree(m) for m in self.terms}
        if len(degs) != 1:
            raise InhomogeneousError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def parity(self) -> int:
        return self.degree() & 1

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"GrassmannElement({self.terms!r})"


def gmul(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    out: dict[Monomial, Coeff] = {}
    gterms = g.terms.items()
    for a, ca in f.terms.items():
        inv_a = inversion_mask(a)
        for b, cb in gterms:
            if a & b:
                continue
            m = a | b
            c = -ca * cb if (inv_a & b).bit_count() & 1 else ca * cb
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return GrassmannElement._of(out)


def format_monomial(mono: Monomial) -> str:
    if mono == 0:
        return "1"
    return "^".join(f"x{i}" for i in indices_of(mono))


def _format_coeff(c: Coeff) -> str:
    f = Fraction(c)
    return str(f)


def format_element(f: GrassmannElement) -> str:
    if not f.terms:
        return "0"
    parts = []
    for m in sorted(f.terms, key=lambda m: (degree(m), m)):
        c = Fraction(f.terms[m])
        mono = format_monomial(m)
        mag = abs(c)
        if mono == "1":
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]
