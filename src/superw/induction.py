"""Modules induced from a gl(n) module X placed in Z-degree zero.

Two constructions:

* kac_plus: U(g) (x)_{U(g^{>=0})} X with the positive part acting by zero
  on X.  As a vector space this is Lambda(d_1..d_n) (x) X, of dimension
  2^n dim X; it is the tensor fields T(X (x) det^-1) re-indexed, and its
  columns are those of the kernel ``modules.field_columns``.

* kac_minus_truncated: the induction from the opposite parabolic is
  infinite-dimensional, so we realize its degree window <= cutoff.  The
  basis is PBW monomials in the positive-degree terms (odd generators at
  most once) applied to X; raising action that leaves the window is
  dropped.  Its columns come from a straightening recursion, memoized
  column by column.

Basis vectors are indexed mono * dim X + v.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import InhomogeneousError, RankMismatchError
from .grassmann import indices_of
from .linalg import Vec, vec_axpy
from .modules import FiniteWModule, GlModule, field_columns
from .walgebra import (
    Term,
    WElement,
    basis_terms,
    bracket,
    term_degree,
    term_key,
    term_parity,
    term_weight,
)
from .weights import Weight

_BRACKETS: dict = {}


def _bracket_terms(n: int, a: Term, b: Term) -> list[tuple[Term, int]]:
    key = (n, a, b)
    hit = _BRACKETS.get(key)
    if hit is None:
        x = WElement.basis_term(n, *a)
        y = WElement.basis_term(n, *b)
        hit = [(t, c) for t, c in bracket(x, y).terms.items()]
        _BRACKETS[key] = hit
    return hit


def _base_total(x: GlModule) -> int:
    totals = {w.total() for w in x.weights}
    if len(totals) > 1:
        raise InhomogeneousError(
            f"base module {x.name or 'X'} mixes weight totals {sorted(totals)}")
    return totals.pop() if totals else 0


def kac_plus(x: GlModule, n: int) -> FiniteWModule:
    """Induced module on Lambda(d) (x) X, positive part acting by zero.

    It is the tensor fields T(X (x) det^-1) re-indexed: an induced module
    is a coinduced one twisted by the Berezinian of g/g^{>=0} = W_{-1},
    which is purely odd with weights -e_i, so the twist is det^-1.  In
    T(X (x) det^-1), x^[n] (x) X is a copy of X that g^{>=1} kills, so
    1 (x) v -> x^[n] (x) v extends to a module map.  It sends d_S (x) v =
    d_(s_1)...d_(s_k) (1 (x) v), s_1 < ... < s_k, to eps(S) x^(S^c) (x) v,
    eps(S) = (-1)^(sum_{i in S} (i - 1)), as each d_s removes x_s past the
    s - 1 factors before it, the largest first.  So the column on
    d_S (x) v is the tensor-field column on x^(S^c) (x) v, each row
    f (x) w read back as d_(f^c) (x) w, times eps(S) eps(f^c)."""
    if x.rank != n:
        raise RankMismatchError(f"base rank {x.rank} vs algebra rank {n}")
    dx = x.dim
    t0 = _base_total(x)
    weights: list[Weight] = []
    for mask in range(1 << n):
        drop = Weight.from_dense(-(mask >> i & 1) for i in range(n))
        weights.extend(w + drop for w in x.weights)

    def twisted_col(term: Term, v: int) -> Vec:
        # X (x) det^-1: E_ii acts by one less (a zero adds no key), E_ij as on X
        c = x.column(term, v)
        return {v: c.get(v, 0) - 1} if term[0] == 1 << (term[1] - 1) else c

    full = (1 << n) - 1
    field_col = field_columns(twisted_col, dx)
    eps = [(-1) ** sum(i - 1 for i in indices_of(s)) for s in range(1 << n)]

    def col(term: Term, j: int) -> Vec:
        mask, v = divmod(j, dx)
        sgn = eps[mask]
        out: Vec = {}
        for k, c in field_col(term, (full ^ mask) * dx + v).items():
            f, w = divmod(k, dx)
            out[(full ^ f) * dx + w] = c if eps[full ^ f] == sgn else -c
        return out

    return FiniteWModule(n, weights, col_fn=col, name=f"K+({x.name or 'X'})",
                         meta={"base_total": t0, "layer_sign": -1})


def kac_minus_truncated(x: GlModule, n: int, cutoff: int) -> FiniteWModule:
    """Degree window <= cutoff of the induction with the positive part free.

    Lossy: action components landing beyond the window are dropped."""
    if x.rank != n:
        raise RankMismatchError(f"base rank {x.rank} vs algebra rank {n}")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    dx = x.dim
    t0 = _base_total(x)
    pos = [t for t in basis_terms(n) if term_degree(t) >= 1]

    monos: list[tuple[Term, ...]] = [()]

    def grow(prefix: tuple, start: int, budget: int) -> None:
        for s in range(start, len(pos)):
            t = pos[s]
            d = term_degree(t)
            if d > budget:
                break  # pos is sorted by degree first
            cur = prefix + (t,)
            monos.append(cur)
            grow(cur, s if d % 2 == 0 else s + 1, budget - d)

    grow((), 0, cutoff)
    mono_deg = [sum(term_degree(t) for t in m) for m in monos]
    order = sorted(range(len(monos)), key=lambda s: (mono_deg[s], [term_key(t) for t in monos[s]]))
    monos = [monos[s] for s in order]
    mono_deg = [mono_deg[s] for s in order]
    idx = {m: s for s, m in enumerate(monos)}

    weights: list[Weight] = []
    for m in monos:
        w = Weight.zero()
        for t in m:
            w = w + term_weight(t)
        weights.extend(xw + w for xw in x.weights)

    @cache
    def pbw_insert(t: Term, mono: tuple) -> dict:
        """Straighten t * mono into canonical monomials, dropping anything
        beyond the degree window."""
        if term_degree(t) + sum(term_degree(u) for u in mono) > cutoff:
            return {}
        if not mono:
            return {(t,): 1}
        h = mono[0]
        rest = mono[1:]
        out = {}
        if t == h and term_degree(t) % 2:
            # odd square: t t = (1/2)[t, t]
            for bt, bc in _bracket_terms(n, t, t):
                vec_axpy(out, Fraction(bc, 2), pbw_insert(bt, rest))
        elif term_key(t) <= term_key(h):
            out = {(t,) + mono: 1}
        else:
            for bt, bc in _bracket_terms(n, t, h):
                vec_axpy(out, bc, pbw_insert(bt, rest))
            sgn = -1 if term_parity(t) and term_parity(h) else 1
            for m2, c2 in pbw_insert(t, rest).items():
                vec_axpy(out, sgn * c2, pbw_insert(h, m2))
        return out

    @cache
    def col(term: Term, j: int) -> Vec:
        mi, v = divmod(j, dx)
        mono = monos[mi]
        d = term_degree(term)
        if d >= 1:
            out: Vec = {}
            for m2, c2 in pbw_insert(term, mono).items():
                out[idx[m2] * dx + v] = c2
            return out
        if not mono:
            return dict(x.column(term, v)) if d == 0 else {}
        h = mono[0]
        rj = idx[mono[1:]] * dx + v
        out = {}
        for bt, bc in _bracket_terms(n, term, h):
            vec_axpy(out, bc, col(bt, rj))
        sgn = -1 if term_parity(term) and term_parity(h) else 1
        for jj, c in col(term, rj).items():
            mi2, v2 = divmod(jj, dx)
            for m3, c3 in pbw_insert(h, monos[mi2]).items():
                key = idx[m3] * dx + v2
                nv = out.get(key, 0) + sgn * c * c3
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return out

    return FiniteWModule(n, weights, col_fn=col, name=f"K-({x.name or 'X'},<={cutoff})",
                         meta={"base_total": t0, "layer_sign": 1, "cutoff": cutoff})


@dataclass(frozen=True)
class Typicality:
    """Whether a one-line weight parametrizes a typical induced module."""
    weight: Weight
    rank: int
    typical: bool
    position: int | None = None
    coefficient: int | None = None

    def to_json(self) -> dict:
        out = {"weight": self.weight.to_json(), "n": self.rank,
               "typical": self.typical}
        if not self.typical:
            out["position"] = self.position
            out["coefficient"] = self.coefficient
        return out


def typicality(nu: Weight, n: int) -> Typicality:
    """Atypical exactly when nu = a e_i + e_{i+1} + ... + e_n for some i, a."""
    dense = nu.dense(n)
    for i in range(1, n + 1):
        if all(c == 0 for c in dense[: i - 1]) and all(c == 1 for c in dense[i:]):
            return Typicality(nu, n, typical=False, position=i,
                              coefficient=dense[i - 1])
    return Typicality(nu, n, typical=True)
