"""Sparse exact-rational vectors and echelon bookkeeping.

Vectors are dicts from integer coordinates to nonzero rationals.  Echelon
state keeps each stored row normalized so its minimal coordinate is the
pivot with coefficient one; reduction therefore terminates by always
eliminating the least pivoted coordinate present.

``RationalEchelon.reduce`` is the one exact reduction loop: insertion,
membership (an empty residual) and coordinates over the stored rows
(``express``, which passes it a dict to record the eliminated rows'
coefficients in) all go through it.  ``kernel_basis`` is the one rank
solve: it inserts the constraint rows and back-substitutes one basis
vector per free column, so no dense matrix is ever formed.  Joint kernels,
hom spaces and the coinvariant dimensions of ``stability`` (a nullity)
all come from it.

Every library answer is exact.  The mod-p echelon (``ModPEchelon``,
``vec_mod``, modulo ``DEFAULT_PRIME`` = 2^61 - 1) survives only for the
oracles ``rank_mod_p`` here and ``spanops.burnside_full``: no library
function calls them; the tests compare against them, and the benchmark's
tracer still looks them up by name.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

Vec = dict  # coordinate -> nonzero coefficient

# Mersenne prime 2^61 - 1, the modulus of the mod-p oracles
DEFAULT_PRIME = (1 << 61) - 1

def vec_axpy(acc: Vec, c, v: Vec) -> None:
    """acc += c*v in place, dropping zeros."""
    if not c:
        return
    for k, x in v.items():
        nv = acc.get(k, 0) + c * x
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)


def vec_mod(v: Vec, p: int) -> Vec:
    out = {}
    for k, x in v.items():
        if isinstance(x, Fraction):
            num = x.numerator % p
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by modulus")
            r = num * pow(den, p - 2, p) % p
        else:
            r = x % p
        if r:
            out[k] = r
    return out


class RationalEchelon:
    """Incremental echelon basis over the rationals.

    Rows are stored normalized (pivot coefficient one, pivot = minimal
    coordinate of the row).  Insertion order is preserved in ``order`` so
    the rows can serve as an ordered basis of the span.
    """

    __slots__ = ("rows", "order")

    def __init__(self):
        self.rows: dict = {}  # pivot -> row vec
        self.order: list = []  # pivots in insertion order

    @property
    def dim(self) -> int:
        return len(self.order)

    def reduce(self, v: Vec, coeffs: Optional[dict] = None) -> Vec:
        """Residual of v against the stored rows; v itself is not touched.

        With a ``coeffs`` dict, the coefficient of each eliminated row is
        recorded there under its pivot, so v = sum c*row + residual.  Each
        pivot is hit at most once: a row only reaches coordinates above
        its pivot."""
        # drop explicit zeros first: one at a stored pivot would never be
        # eliminated, and one at the new pivot could not be normalized
        v = {k: x for k, x in v.items() if x}
        while True:
            hits = [k for k in v if k in self.rows]
            if not hits:
                break
            piv = min(hits)
            c = v[piv]
            if coeffs is not None:
                coeffs[piv] = c
            vec_axpy(v, -c, self.rows[piv])
        return v

    def insert(self, v: Vec):
        """Reduce and, if independent, store; returns the new pivot or None."""
        r = self.reduce(v)
        if not r:
            return None
        piv = min(r)
        c = r[piv]
        if c != 1:
            norm = {}
            for k, x in r.items():
                q = Fraction(x) / Fraction(c)
                norm[k] = int(q) if q.denominator == 1 else q
            r = norm
        self.rows[piv] = r
        self.order.append(piv)
        return piv

    def express(self, v: Vec) -> Optional[dict]:
        """Coefficients of v over the stored rows (keyed by pivot), or None."""
        coeffs: dict = {}
        return None if self.reduce(v, coeffs) else coeffs


class ModPEchelon:
    """Same shape as RationalEchelon but over Z/p."""

    __slots__ = ("p", "rows", "order")

    def __init__(self, p: int):
        self.p = p
        self.rows: dict = {}
        self.order: list = []

    @property
    def dim(self) -> int:
        return len(self.order)

    def reduce(self, v: Vec) -> Vec:
        p = self.p
        v = dict(v)
        while True:
            hits = [k for k in v if k in self.rows]
            if not hits:
                break
            piv = min(hits)
            c = v[piv]
            row = self.rows[piv]
            for k, x in row.items():
                nv = (v.get(k, 0) - c * x) % p
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
        return v

    def insert(self, v: Vec):
        """Reduce and, if independent mod p, store; returns the new pivot or
        None.  Entries of the residual that vanish mod p are neither pivots
        nor stored, so a zero vector mod p never counts towards the rank."""
        p = self.p
        r = self.reduce(v)
        if not r:
            return None
        piv = min(r)
        if not r[piv] % p:
            r = {k: x for k, x in r.items() if x % p}
            if not r:
                return None
            piv = min(r)
        inv = pow(r[piv], p - 2, p)
        r = {k: y for k, x in r.items() if (y := x * inv % p)}
        self.rows[piv] = r
        self.order.append(piv)
        return piv


def kernel_basis(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Exact nullspace of the system given by constraint rows over 0..ncols-1.

    The basis is the reduced-row-echelon one: a vector per free column fc,
    in ascending order, equal to one at fc and zero at every other free
    column.  Its pivot coordinates follow by back-substitution, visiting
    pivots in descending order, since every other coordinate of a stored
    row lies above its pivot.  Rows stop being read once they reach rank
    ncols, when the kernel is zero.  The free coordinate is the int 1, so
    a kernel of integer rows stays integral and the closures it seeds run
    in int arithmetic, not Fraction."""
    ech = RationalEchelon()
    for r in rows:
        ech.insert(r)
        if ech.dim == ncols:
            return []
    pivots = sorted(ech.rows, reverse=True)
    basis = []
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        v = {fc: 1}
        for pc in pivots:
            if pc < fc:
                s = sum(x * v[k] for k, x in ech.rows[pc].items() if k in v)
                if s:
                    v[pc] = -s
        basis.append(v)
    return basis


def rank_mod_p(rows: Iterable[Vec]) -> int:
    """Rank of the rows mod DEFAULT_PRIME; an oracle for the tests."""
    ech = ModPEchelon(DEFAULT_PRIME)
    for r in rows:
        ech.insert(vec_mod(r, DEFAULT_PRIME))
    return ech.dim
