"""Finite-dimensional gl(n) modules over the rationals.

A gl(n) module is a ``GlModule``: a module over the degree-zero terms of
the superderivation algebra, where E_ij is x_i d_j.  Duals, tensor
products and restrictions are the general ones of ``modules``; this file
keeps the gl builders, Weyl's dimension formula and the layer-multiplicity
identity, whose character fold lives in ``partitions``.  Everything is exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .linalg import Vec
from .modules import GlModule, restrict_module, singular_line, tensor_module
from .partitions import (
    Partition,
    aspartition,
    decompose_character,
    schur_weights,
    shifted_weights,
    socle_layer_mults,
    stable_highest_weight,
    weight_to_partition_pair,
)
from .spanops import module_closure
from .walgebra import BorelOrder, Term, lowering_roots
from .weights import NATURAL, Weight


def gl_trivial(n: int) -> GlModule:
    return GlModule(n, [Weight.zero()], col_fn=lambda term, j: {}, name="C")


def gl_natural(n: int) -> GlModule:
    """V with basis e_1..e_n, E_ij e_k = delta_jk e_i."""
    weights = [Weight.eps(i) for i in range(1, n + 1)]

    def col(term: Term, c: int) -> Vec:
        mask, j = term
        if c != j - 1 or mask.bit_count() != 1:
            return {}  # only the degree-zero terms x_i d_j act
        return {mask.bit_length() - 1: 1}

    return GlModule(n, weights, col_fn=col, name="V")


def gl_conatural(n: int) -> GlModule:
    """V* with basis f_1..f_n, E_ij f_k = -delta_ik f_j."""
    weights = [-Weight.eps(i) for i in range(1, n + 1)]

    def col(term: Term, c: int) -> Vec:
        mask, j = term
        return {j - 1: -1} if mask == 1 << c else {}

    return GlModule(n, weights, col_fn=col, name="V*")


def mixed_tensor(p: int, q: int, n: int) -> GlModule:
    """V^(x)p tensor (V*)^(x)q."""
    factors = [gl_natural(n)] * p + [gl_conatural(n)] * q
    if not factors:
        return gl_trivial(n)
    m = reduce(tensor_module, factors)
    m.name = f"V^{p}(x)V*^{q}"
    return m


def cyclic_simple(m: GlModule, hw: Weight, order: str = "natural") -> GlModule:
    """Simple submodule generated by a vector v of weight hw that the
    raising operators of the given order kill (``singular_line``).  The
    positive roots kill v, so U(gl)v = U(n-)v by PBW, and v is closed
    under the n-1 ``lowering_roots`` of the order alone, which generate
    n-.  That spans the submodule a closure under every E_ij spans, on
    other echelon rows."""
    b = BorelOrder(order, m.rank)
    v = singular_line(m, b, hw)
    return restrict_module(m, module_closure(m, lowering_roots(b), [v]),
                           name=f"V({hw})")


def gl_simple(lam, mu, n: int, order: str = "natural") -> GlModule:
    """The simple module V(lam|mu): lam acts on V-indices, mu on V*-indices.

    Realized inside a mixed tensor power as the cyclic module on the
    highest-weight line for the Borel of the given index order."""
    lam, mu = aspartition(lam), aspartition(mu)
    if lam.size == 0 and mu.size == 0:
        out = gl_trivial(n)
        out.name = "V(|)"
        return out
    hw = stable_highest_weight(lam, mu, order, n)
    amb = mixed_tensor(lam.size, mu.size, n)
    out = cyclic_simple(amb, hw, order=order)
    out.name = f"V({lam}|{mu})"
    return out


def weyl_dim(nu, n: int) -> int:
    """Dimension of the simple module with dominant weight nu (dense tuple)."""
    nu = tuple(nu)
    if len(nu) != n:
        raise ValueError("weight tuple length must equal the rank")
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (nu[i] - nu[j]) + (j - i)
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ValueError("weight is not dominant integral")
    return q


@dataclass
class SocleReport:
    """Outcome of checking a Schur product decomposition against the
    predicted contraction layers."""
    rank: int
    lam: Partition
    mu: Partition
    holds: bool
    lhs_dim: int
    rhs_dim: int
    # layer index k -> list of (lam', mu', expected mult, observed mult)
    layers: dict = field(default_factory=dict)
    # observed constituents no layer predicts
    extras: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "n": self.rank,
            "layers": [
                {
                    "k": k,
                    "constituents": [
                        {"lambda'": list(lp), "mu'": list(mp),
                         "expected": exp, "observed": obs}
                        for lp, mp, exp, obs in rows
                    ],
                }
                for k, rows in sorted(self.layers.items())
            ],
            "extras": [
                {"lambda'": list(lp), "mu'": list(mp), "observed": obs}
                for lp, mp, obs in self.extras
            ],
            "pass": self.holds,
            "lhs_dim": self.lhs_dim,
            "rhs_dim": self.rhs_dim,
        }


def verify_socle_identity(lam, mu, n: int) -> SocleReport:
    """Decompose S_lam(V) (x) S_mu(V*) into simple characters, as lam plus
    the weights of S_mu(V*) (Brauer-Klimyk), and compare the constituent
    pairs with the predicted contraction layers:
    layer k carries V(lam'|mu') with multiplicity summed over shapes of
    size k paired against both quotients.

    Raises RankTooSmallError when the pair (lam|mu) needs a larger rank.
    Every layer pair (lam'|mu') has lam' inside lam and mu' inside mu, so
    then every layer fits the rank too."""
    lam = aspartition(lam)
    mu = aspartition(mu)
    stable_highest_weight(lam, mu, NATURAL, n)  # the top pair must fit the rank
    top = stable_highest_weight(lam, (), NATURAL, n).dense(n)
    mu_dual = {tuple(-x for x in reversed(t)): c
               for t, c in schur_weights(mu, n).items()}
    lhs_dim = weyl_dim(top, n) * sum(mu_dual.values())

    observed: dict[tuple[Partition, Partition], int] = {}
    for dense, mult in decompose_character(shifted_weights(top, mu_dual), n).items():
        pair = weight_to_partition_pair(Weight.from_dense(dense), n)
        observed[pair] = observed.get(pair, 0) + mult

    layers: dict = {}
    matched: set = set()
    holds = True
    for k in range(min(lam.size, mu.size) + 1):
        entries = socle_layer_mults(lam, mu, k)
        rows = []
        for (lp, mp), exp in sorted(entries.items()):
            obs = observed.get((lp, mp), 0)
            rows.append((lp, mp, exp, obs))
            matched.add((lp, mp))
            if obs != exp:
                holds = False
        if rows:
            layers[k] = rows
    extras = [(lp, mp, obs) for (lp, mp), obs in sorted(observed.items())
              if (lp, mp) not in matched]
    if extras:
        holds = False
    rhs_dim = sum(weyl_dim(stable_highest_weight(lp, mp, NATURAL, n).dense(n), n) * exp
                  for rows in layers.values() for lp, mp, exp, _ in rows)
    return SocleReport(rank=n, lam=lam, mu=mu, holds=holds, lhs_dim=lhs_dim,
                       rhs_dim=rhs_dim, layers=layers, extras=extras)
