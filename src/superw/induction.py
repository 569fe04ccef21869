"""Modules induced from a gl(n) module X placed in Z-degree zero.

Two constructions:

* kac_plus: U(g) (x)_{U(g^{>=0})} X with the positive part acting by zero
  on X, of dimension 2^n dim X.  It is the tensor fields T(X (x) det^-1),
  built by ``modules.field_module`` on its basis x^f (x) v, indexed
  f * dim X + v.

* kac_minus_truncated: the induction from the opposite parabolic is
  infinite-dimensional, so we realize its degree window <= cutoff.  The
  basis is PBW monomials in the positive-degree terms (odd generators at
  most once) applied to X; raising action that leaves the window is
  dropped.  Its columns come from a straightening recursion, memoized
  column by column.  Its basis vectors are indexed mono * dim X + v.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import InhomogeneousError, RankMismatchError
from .linalg import Vec, vec_axpy
from .modules import FiniteWModule, GlModule, field_module
from .walgebra import (
    Term,
    basis_terms,
    term_bracket,
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
        hit = list(term_bracket({a: 1}, {b: 1}).items())
        _BRACKETS[key] = hit
    return hit


def _base_total(x: GlModule) -> int:
    totals = {w.total() for w in x.weights}
    if len(totals) > 1:
        raise InhomogeneousError(
            f"base module {x.name or 'X'} mixes weight totals {sorted(totals)}")
    return totals.pop() if totals else 0


def kac_plus(x: GlModule, n: int) -> FiniteWModule:
    """Induced module U(g) (x)_{U(g^{>=0})} X, positive part acting by zero
    on X, as the tensor fields T(X (x) det^-1) on their own basis: x^f (x) v
    at f * dim X + v, of weight w_v - (1,...,1) + lift(f) and layer
    n - |f|, its number of d's.

    An induced module is a coinduced one twisted by the Berezinian of
    g/g^{>=0} = W_{-1}, which is purely odd with weights -e_i, so the
    twist is det^-1.  In T(X (x) det^-1), x^[n] (x) X is a copy of X that
    g^{>=1} kills, so 1 (x) v -> x^[n] (x) v extends to a module map.  It
    sends d_S (x) v to +-x^(S^c) (x) v, a basis, so it is an isomorphism.
    The columns are ``field_columns`` over X (x) det^-1, read directly; no
    tensor product is built."""
    if x.rank != n:
        raise RankMismatchError(f"base rank {x.rank} vs algebra rank {n}")
    t0 = _base_total(x)

    def twisted_col(term: Term, v: int) -> Vec:
        # X (x) det^-1: E_ii acts by one less (a zero adds no key), E_ij as on X
        c = x.column(term, v)
        return {v: c.get(v, 0) - 1} if term[0] == 1 << (term[1] - 1) else c

    det_inv = Weight.from_dense([-1] * n)
    base = GlModule(n, [w + det_inv for w in x.weights], col_fn=twisted_col)
    return field_module(base, name=f"K+({x.name or 'X'})",
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
