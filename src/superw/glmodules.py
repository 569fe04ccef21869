"""Finite-dimensional gl(n) modules over the rationals.

Basis vectors carry integer weights for the diagonal Cartan; the
elementary matrices E_ij act by explicit sparse columns.  Everything is
exact.  Characters are dicts from dense weight tuples to multiplicities.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce

from .errors import NonBasisElementError, RankTooSmallError
from .linalg import RationalEchelon, Vec, vec_axpy
from .partitions import (
    Partition,
    aspartition,
    schur_dim,
    schur_weights,
    socle_layer_mults,
    stable_highest_weight,
    weight_to_partition_pair,
)
from .spanops import apply_gen, module_closure, restricted_action, singular_blocks
from .weights import Weight, order_sequence

GlGen = tuple[int, int]


class GlModule:
    """A gl(rank) module given by weights and sparse action columns."""

    __slots__ = ("rank", "weights", "_cols", "name", "_blocks")

    def __init__(self, rank: int, weights: list[Weight], cols: dict, name: str = ""):
        self.rank = rank
        self.weights = weights
        self._cols = cols
        self.name = name
        self._blocks = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def gen_keys(self) -> list[GlGen]:
        n = self.rank
        return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def raising_keys(self, order: str = "natural") -> list[GlGen]:
        seq = order_sequence(order, self.rank)
        return [(seq[s], seq[t])
                for s in range(len(seq)) for t in range(s + 1, len(seq))]

    def column(self, gen: GlGen, j: int) -> Vec:
        return self._cols.get(gen, {}).get(j, {})

    def act(self, gen: GlGen, vec: Vec) -> Vec:
        return apply_gen(self, gen, vec)

    def weight_blocks(self) -> dict:
        if self._blocks is None:
            blocks: dict = {}
            for j, w in enumerate(self.weights):
                blocks.setdefault(w, []).append(j)
            self._blocks = blocks
        return self._blocks

    def character(self) -> dict[tuple, int]:
        n = self.rank
        ch: dict[tuple, int] = {}
        for w in self.weights:
            t = w.dense(n)
            ch[t] = ch.get(t, 0) + 1
        return ch

    def __repr__(self):
        tag = self.name or "gl-module"
        return f"<{tag} rank={self.rank} dim={self.dim}>"


def _cols_from_action(rank: int, dim: int, action) -> dict:
    cols: dict = {}
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            gc: dict = {}
            for c in range(dim):
                v = action(i, j, c)
                if v:
                    gc[c] = v
            if gc:
                cols[(i, j)] = gc
    return cols


def gl_trivial(n: int) -> GlModule:
    return GlModule(n, [Weight.zero()], {}, name="C")


def gl_natural(n: int) -> GlModule:
    """V with basis e_1..e_n, E_ij e_k = delta_jk e_i."""
    weights = [Weight.eps(i) for i in range(1, n + 1)]

    def action(i, j, c):
        return {i - 1: 1} if c == j - 1 else {}

    return GlModule(n, weights, _cols_from_action(n, n, action), name="V")


def gl_conatural(n: int) -> GlModule:
    """V* with basis f_1..f_n, E_ij f_k = -delta_ik f_j."""
    weights = [-Weight.eps(i) for i in range(1, n + 1)]

    def action(i, j, c):
        return {j - 1: -1} if c == i - 1 else {}

    return GlModule(n, weights, _cols_from_action(n, n, action), name="V*")


def gl_dual(m: GlModule) -> GlModule:
    """Dual module on the dual basis: matrices are negated transposes."""
    cols: dict = {}
    for gen, gc in m._cols.items():
        dual_gc: dict = {}
        for c, col in gc.items():
            for r, a in col.items():
                dual_gc.setdefault(r, {})[c] = -a
        if dual_gc:
            cols[gen] = dual_gc
    weights = [-w for w in m.weights]
    name = f"({m.name})*" if m.name else ""
    return GlModule(m.rank, weights, cols, name=name)


def gl_tensor(a: GlModule, b: GlModule) -> GlModule:
    """a (x) b with basis pairs ordered (a-index, b-index)."""
    if a.rank != b.rank:
        raise ValueError("tensor factors must share a rank")
    db = b.dim
    weights = [wa + wb for wa in a.weights for wb in b.weights]
    cols: dict = {}
    gens = set(a._cols) | set(b._cols)
    for gen in gens:
        gc: dict = {}
        ga = a._cols.get(gen, {})
        gb = b._cols.get(gen, {})
        for ca in range(a.dim):
            cola = ga.get(ca, {})
            for cb in range(b.dim):
                out: Vec = {}
                for r, x in cola.items():
                    out[r * db + cb] = x
                for r, x in gb.get(cb, {}).items():
                    k = ca * db + r
                    nv = out.get(k, 0) + x
                    if nv:
                        out[k] = nv
                    else:
                        out.pop(k, None)
                if out:
                    gc[ca * db + cb] = out
        if gc:
            cols[gen] = gc
    name = f"{a.name}(x){b.name}" if a.name and b.name else ""
    return GlModule(a.rank, weights, cols, name=name)


def mixed_tensor(p: int, q: int, n: int) -> GlModule:
    """V^(x)p tensor (V*)^(x)q."""
    factors = [gl_natural(n)] * p + [gl_conatural(n)] * q
    if not factors:
        return gl_trivial(n)
    m = reduce(gl_tensor, factors)
    m.name = f"V^{p}(x)V*^{q}"
    return m


def restrict_to_span(m, ech: RationalEchelon, gens: dict | None = None,
                     name: str = "") -> GlModule:
    """Present an invariant span of m as a gl module on the echelon basis.

    gens maps each E_ij to the operator of m that acts as it; by default
    m is itself a gl module and E_ij acts as E_ij."""
    weights, col = restricted_action(m, ech)
    if gens is None:
        gens = {g: g for g in m.gen_keys()}
    cols: dict = {}
    for e, gen in gens.items():
        gc: dict = {}
        for t in range(len(weights)):
            c = col(gen, t)
            if c:
                gc[t] = c
        if gc:
            cols[e] = gc
    return GlModule(m.rank, weights, cols, name=name)


def cyclic_simple(m: GlModule, hw: Weight, order: str = "natural") -> GlModule:
    """Simple submodule generated by a vector of weight hw that the raising
    operators of the given order kill."""
    blocks = m.weight_blocks()
    if hw not in blocks:
        raise NonBasisElementError(f"weight {hw} does not occur")
    sing = singular_blocks(m, m.raising_keys(order),
                           block_filter=lambda key: key == hw)
    vecs = sing.get(hw)
    if not vecs:
        raise NonBasisElementError(f"no highest-weight vector of weight {hw}")
    ech = module_closure(m, m.gen_keys(), [vecs[0]])
    return restrict_to_span(m, ech, name=f"V({hw})")


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


def schur_module(lam, n: int) -> GlModule:
    """S_lam(V) inside the |lam|-fold tensor power of V."""
    lam = aspartition(lam)
    if lam.length > n:
        raise RankTooSmallError(f"shape {lam} needs rank >= {lam.length}")
    if lam.size == 0:
        return gl_trivial(n)
    amb = mixed_tensor(lam.size, 0, n)
    hw = Weight.from_dense(lam.parts + (0,) * (n - lam.length))
    out = cyclic_simple(amb, hw)
    out.name = f"S_{lam}(V)"
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


def decompose_character(ch: dict[tuple, int], n: int) -> dict[tuple, int]:
    """Multiplicities of simple characters, dominant weight -> count, by one
    pass over the weights of ch, each folded into the dominant chamber.

    With rho = (n-1, ..., 0), a weight w with w + rho regular contributes
    sign(s) * ch(w) to nu = s(w + rho) - rho, where s sorts w + rho into
    descending order; a singular w + rho contributes nothing.  For a
    W-invariant character this is its decomposition (Weyl's character
    formula).  For ch = {lam + w: mult_X(w)}, the weights of a module X
    shifted by a dominant lam, it is V(lam) (x) X (Brauer-Klimyk).  Keys are
    dense weights of length n.  Raises ValueError when a multiplicity comes
    out negative, which no genuine character of either kind yields."""
    rho = range(n - 1, -1, -1)
    out: dict[tuple, int] = {}
    for w, mult in ch.items():
        v = [x + r for x, r in zip(w, rho)]
        if not mult or len(set(v)) < n:
            continue
        for i in range(n):
            for j in range(i + 1, n):
                if v[i] < v[j]:
                    mult = -mult
        v.sort(reverse=True)
        nu = tuple(x - r for x, r in zip(v, rho))
        out[nu] = out.get(nu, 0) + mult
    if any(m < 0 for m in out.values()):
        raise ValueError("character is not a nonnegative sum of simples")
    return {nu: m for nu, m in out.items() if m}


def decompose(m: GlModule, order: str = "natural") -> dict[Weight, int]:
    """Multiplicities of simples in a semisimple module, read off from
    highest-weight vectors."""
    sing = singular_blocks(m, m.raising_keys(order))
    seq = order_sequence(order, m.rank)
    return {w: len(vs)
            for w, vs in sorted(sing.items(),
                                key=lambda kv: kv[0].sort_key(seq),
                                reverse=True)}


def mixed_weight(lam, mu, n: int) -> tuple:
    """Dense dominant weight (lam_1,..,0,..,-mu_2,-mu_1); the two tails
    must not overlap."""
    lam = aspartition(lam)
    mu = aspartition(mu)
    if lam.length + mu.length > n:
        raise RankTooSmallError(
            f"shapes {lam},{mu} need rank >= {lam.length + mu.length}")
    dense = list(lam.parts + (0,) * (n - lam.length))
    for t, c in enumerate(mu.parts):
        dense[n - 1 - t] -= c
    return tuple(dense)


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

    def to_json(self) -> str:
        payload = {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "n": self.rank,
            "layers": [
                {
                    "k": k,
                    "constituents": [
                        {"lambda'": list(lp.parts), "mu'": list(mp.parts),
                         "expected": exp, "observed": obs}
                        for lp, mp, exp, obs in rows
                    ],
                }
                for k, rows in sorted(self.layers.items())
            ],
            "extras": [
                {"lambda'": list(lp.parts), "mu'": list(mp.parts), "observed": obs}
                for lp, mp, obs in self.extras
            ],
            "pass": self.holds,
            "lhs_dim": self.lhs_dim,
            "rhs_dim": self.rhs_dim,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


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
    mixed_weight(lam, mu, n)  # the top pair must fit the rank
    top = lam.parts + (0,) * (n - lam.length)
    mu_dual = {tuple(-x for x in reversed(t)): c
               for t, c in schur_weights(mu, n).items()}
    lhs_dim = schur_dim(lam, n) * sum(mu_dual.values())
    shifted = {tuple(a + b for a, b in zip(top, t)): c for t, c in mu_dual.items()}

    observed: dict[tuple[Partition, Partition], int] = {}
    for dense, mult in decompose_character(shifted, n).items():
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
    rhs_dim = sum(weyl_dim(mixed_weight(lp, mp, n), n) * exp
                  for rows in layers.values() for lp, mp, exp, _ in rows)
    return SocleReport(rank=n, lam=lam, mu=mu, holds=holds, lhs_dim=lhs_dim,
                       rhs_dim=rhs_dim, layers=layers, extras=extras)


def check_gl_commutators(m: GlModule) -> list:
    """All violations of [E_ij, E_kl] = d_jk E_il - d_li E_kj on basis vectors."""
    bad = []
    n = m.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    for c in range(m.dim):
                        lhs: Vec = {}
                        vec_axpy(lhs, 1, m.act((i, j), m.column((k, l), c)))
                        vec_axpy(lhs, -1, m.act((k, l), m.column((i, j), c)))
                        rhs: Vec = {}
                        if j == k:
                            vec_axpy(rhs, 1, m.column((i, l), c))
                        if l == i:
                            vec_axpy(rhs, -1, m.column((k, j), c))
                        vec_axpy(lhs, -1, rhs)
                        if lhs:
                            bad.append(((i, j), (k, l), c))
    return bad
