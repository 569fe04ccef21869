"""Exact arithmetic in a finite rank Grassmann algebra.

A monomial in the generators x_1..x_n is an index bitmask: bit i-1 set
means x_i occurs.  Products carry the sign of the permutation sorting the
concatenated index sequences; coefficients are exact rationals (python
ints, widening to Fraction only when division appears upstream).  An
element is a term dict {mask: coefficient}: its vector in Lambda(n) = T(C).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Union

Monomial = int
Coeff = Union[int, Fraction]


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


def gmul(ft: Mapping[Monomial, Coeff], gt: Mapping[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """The product of two term dicts: fresh, zero-free, in order of first hit."""
    out: dict[Monomial, Coeff] = {}
    gterms = gt.items()
    for a, ca in ft.items():
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
    return out


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


def format_monomial(mono: Monomial) -> str:
    if mono == 0:
        return "1"
    return "^".join(f"x{i}" for i in indices_of(mono))


def format_terms(terms: Mapping, key: Callable, name: Callable[..., str]) -> str:
    """A term dict as a signed sum in key order: ``|c|*name``, with a unit
    coefficient left out and a term named "1" printed as its coefficient."""
    if not terms:
        return "0"
    parts = []
    for t in sorted(terms, key=key):
        c = Fraction(terms[t])
        mag, body = abs(c), name(t)
        if body == "1":
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]
