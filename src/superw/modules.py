"""Finite-dimensional weight modules over the superderivation algebra.

A module is a weight-graded basis plus a rule producing the sparse action
column of any algebra basis term on any basis vector.  Columns are cached
as they are computed, so large modules only pay for the operators a
computation actually touches.

The z-degree of a basis vector always equals the coordinate sum of its
weight, and the parity is that number mod 2; constructions below all
preserve this, so both gradings are derived from the weight.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import NonBasisElementError, RankMismatchError
from .glmodules import GlModule, restrict_to_span
from .grassmann import (
    GrassmannElement,
    basis as grassmann_basis,
    format_monomial,
    indices_of,
)
from .linalg import RationalEchelon, Vec, vec_axpy
from .spanops import apply_gen, module_closure, restricted_action, singular_blocks
from .walgebra import (
    BorelOrder,
    Term,
    WElement,
    basis_terms,
    bracket,
    format_term,
    nilradical_generating_terms,
    term_parity,
    term_weight,
    w_apply,
)
from .weights import Weight


def local_terms(n: int) -> list[Term]:
    """Basis terms of the three lowest z-degrees; they generate the whole
    algebra for rank >= 1, so module computations may restrict to them."""
    out: list[Term] = []
    for k in (-1, 0, 1):
        out.extend(basis_terms(n, k))
    return out


def all_terms(n: int) -> list[Term]:
    out: list[Term] = []
    for k in range(-1, n):
        out.extend(basis_terms(n, k))
    return out


class FiniteWModule:
    """Weight module with lazily materialized action columns.

    Exactly one of term_fn (whole sparse matrix of a term) or col_fn
    (single column) drives the action; caches fill in behind either.
    """

    def __init__(self, rank: int, weights: list[Weight], term_fn: Callable | None = None,
                 col_fn: Callable | None = None, name: str = "",
                 labels: list[str] | None = None, meta: dict | None = None):
        if term_fn is None and col_fn is None:
            raise ValueError("need term_fn or col_fn")
        self.rank = rank
        self.weights = list(weights)
        self.zdegs = [w.total() for w in self.weights]
        self.parities = [z % 2 for z in self.zdegs]
        self.name = name
        self.labels = labels
        self.meta = meta or {}
        self._term_fn = term_fn
        self._col_fn = col_fn
        self._cols: dict[Term, dict[int, Vec]] = {}
        self._full: set[Term] = set()
        self._blocks = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def gen_keys(self) -> list[Term]:
        return local_terms(self.rank)

    def label(self, j: int) -> str:
        return self.labels[j] if self.labels else f"e{j}"

    def column(self, term: Term, j: int) -> Vec:
        cols = self._cols.get(term)
        if cols is not None and (term in self._full or j in cols):
            return cols.get(j, {})
        if self._col_fn is not None:
            v = self._col_fn(term, j) or {}
            self._cols.setdefault(term, {})[j] = v
            return v
        mat = self._term_fn(term) or {}
        self._cols[term] = mat
        self._full.add(term)
        return mat.get(j, {})

    def act_term(self, term: Term, vec: Vec) -> Vec:
        return apply_gen(self, term, vec)

    def act(self, x: WElement, vec: Vec) -> Vec:
        if x.rank != self.rank:
            raise RankMismatchError(f"operator rank {x.rank} vs module rank {self.rank}")
        out: Vec = {}
        for term, c in x.terms.items():
            vec_axpy(out, c, self.act_term(term, vec))
        return out

    def weight_blocks(self) -> dict:
        if self._blocks is None:
            blocks: dict = {}
            for j, w in enumerate(self.weights):
                key = (w, self.zdegs[j], self.parities[j])
                blocks.setdefault(key, []).append(j)
            self._blocks = blocks
        return self._blocks

    def weight_of(self, vec: Vec) -> Weight:
        ws = {self.weights[j] for j in vec}
        if len(ws) != 1:
            raise NonBasisElementError("vector is not weight-homogeneous")
        return ws.pop()

    def character(self) -> "Character":
        entries: dict = {}
        n = self.rank
        for j, w in enumerate(self.weights):
            key = (w.dense(n), self.zdegs[j])
            entries[key] = entries.get(key, 0) + 1
        return Character(n, entries)

    def __repr__(self):
        tag = self.name or "W-module"
        return f"<{tag} rank={self.rank} dim={self.dim}>"


@dataclass
class Character:
    """Formal character: multiplicities keyed by (dense weight, z-degree)."""
    rank: int
    entries: dict

    def total_dim(self) -> int:
        return sum(self.entries.values())

    def restrict(self) -> dict[tuple, int]:
        """Forget the z-degree, leaving a plain gl weight character."""
        out: dict[tuple, int] = {}
        for (w, _z), m in self.entries.items():
            out[w] = out.get(w, 0) + m
        return out

    def convolve(self, other: "Character") -> "Character":
        if self.rank != other.rank:
            raise RankMismatchError("character ranks differ")
        out: dict = {}
        for (w1, z1), m1 in self.entries.items():
            for (w2, z2), m2 in other.entries.items():
                key = (tuple(a + b for a, b in zip(w1, w2)), z1 + z2)
                nv = out.get(key, 0) + m1 * m2
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return Character(self.rank, out)

    def to_json(self) -> str:
        rows = [
            {"weight": list(w), "zdeg": z, "mult": m}
            for (w, z), m in sorted(self.entries.items())
        ]
        return json.dumps({"rank": self.rank, "entries": rows}, sort_keys=True)

    def __eq__(self, other):
        return (isinstance(other, Character) and self.rank == other.rank
                and self.entries == other.entries)


# ---------------------------------------------------------------- standard modules


def trivial_module(n: int) -> FiniteWModule:
    return FiniteWModule(n, [Weight.zero()], col_fn=lambda term, j: {},
                         name="C", labels=["1"])


def lambda_module(n: int) -> FiniteWModule:
    """The Grassmann algebra itself, with basis all monomials."""
    masks = [m for k in range(n + 1) for m in grassmann_basis(n, k)]
    index = {m: j for j, m in enumerate(masks)}
    weights = [Weight(tuple((i, 1) for i in indices_of(m))) for m in masks]

    def col(term: Term, j: int) -> Vec:
        x = WElement(n, {term: Fraction(1)})
        out = w_apply(x, GrassmannElement({masks[j]: Fraction(1)}))
        return {index[m]: c for m, c in out.terms.items()}

    labels = [format_monomial(m) for m in masks]
    return FiniteWModule(n, weights, col_fn=col, name="Lambda", labels=labels)


def adjoint_module(n: int) -> FiniteWModule:
    """The algebra acting on itself by the bracket."""
    terms = all_terms(n)
    index = {t: j for j, t in enumerate(terms)}
    weights = [term_weight(t) for t in terms]

    def col(term: Term, j: int) -> Vec:
        x = WElement(n, {term: Fraction(1)})
        y = WElement(n, {terms[j]: Fraction(1)})
        out = bracket(x, y)
        return {index[t]: c for t, c in out.terms.items()}

    labels = [format_term(t) for t in terms]
    return FiniteWModule(n, weights, col_fn=col, name="adjoint", labels=labels)


def tensor_module(a: FiniteWModule, b: FiniteWModule) -> FiniteWModule:
    """Graded tensor product; the action on the right factor picks up the
    sign (-1)^(p(x)p(left))."""
    if a.rank != b.rank:
        raise RankMismatchError("tensor factors must share a rank")
    db = b.dim
    weights = [wa + wb for wa in a.weights for wb in b.weights]

    def col(term: Term, j: int) -> Vec:
        ia, ib = divmod(j, db)
        out: Vec = {}
        for r, x in a.column(term, ia).items():
            out[r * db + ib] = x
        sign = -1 if term_parity(term) and a.parities[ia] else 1
        for r, x in b.column(term, ib).items():
            k = ia * db + r
            nv = out.get(k, 0) + sign * x
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return out

    name = f"{a.name}(x){b.name}" if a.name and b.name else ""
    return FiniteWModule(a.rank, weights, col_fn=col, name=name)


def dual_module(m: FiniteWModule) -> FiniteWModule:
    """Contragredient module: (x.f)(v) = -(-1)^(p(x)p(f)) f(x.v)."""
    dim = m.dim
    weights = [-w for w in m.weights]
    # parity of a dual vector equals the parity of its partner

    def term_matrix(term: Term) -> dict:
        out: dict = {}
        tp = term_parity(term)
        for c in range(dim):
            for r, x in m.column(term, c).items():
                # entry c of dual column r is -(-1)^(p(t)p(e^r)) * x
                out.setdefault(r, {})[c] = x if (tp and m.parities[r]) else -x
        return out

    name = f"({m.name})*" if m.name else ""
    return FiniteWModule(m.rank, weights, term_fn=term_matrix, name=name)


# ---------------------------------------------------------------- spans and quotients


@dataclass
class Submodule:
    """Invariant span inside a parent module, held by its exact echelon."""
    parent: FiniteWModule
    echelon: RationalEchelon
    _module: Optional[FiniteWModule] = None

    @property
    def full(self) -> bool:
        return self.echelon.dim == self.parent.dim

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def contains(self, vec: Vec) -> bool:
        return self.echelon.contains(vec)

    def module(self) -> FiniteWModule:
        """The span as a module: the parent itself when the span is
        everything, else the action on the echelon basis."""
        if self.full:
            return self.parent
        if self._module is None:
            self._module = restrict_module(self.parent, self.echelon,
                                           name=f"sub({self.parent.name})")
        return self._module


def submodule_generated(m: FiniteWModule, seeds: Iterable[Vec]) -> Submodule:
    """Smallest invariant subspace containing the seeds, closed exactly
    under the local terms, which generate the algebra."""
    return Submodule(parent=m, echelon=module_closure(m, local_terms(m.rank), seeds))


def restrict_module(m: FiniteWModule, ech: RationalEchelon, name: str = "") -> FiniteWModule:
    """Present an invariant span on its echelon basis."""
    weights, col = restricted_action(m, ech)
    return FiniteWModule(m.rank, weights, col_fn=col, name=name,
                         meta=dict(m.meta))


def quotient_module(m: FiniteWModule, sub: Submodule, name: str = "") -> FiniteWModule:
    """Quotient by an invariant span, on the basis of non-pivot coordinates."""
    if sub.parent is not m:
        raise ValueError("submodule belongs to a different parent")
    if sub.full:
        raise ValueError("cannot quotient by the full module")
    ech = sub.echelon
    free = [j for j in range(m.dim) if j not in ech.rows]
    index = {j: t for t, j in enumerate(free)}
    weights = [m.weights[j] for j in free]

    def col(term: Term, t: int) -> Vec:
        img = m.act_term(term, {free[t]: Fraction(1)})
        if not img:
            return {}
        red = ech.reduce(dict(img))
        return {index[j]: c for j, c in red.items()}

    labels = [m.label(j) for j in free] if m.labels else None
    return FiniteWModule(m.rank, weights, col_fn=col,
                         name=name or f"{m.name}/sub", labels=labels)


# ---------------------------------------------------------------- structure analysis


def singular_vectors(m: FiniteWModule, b: BorelOrder,
                     zdegs: Iterable[int] | None = None) -> dict:
    """Joint kernels of the raising operators of b, one entry per block.

    Only a bracket-generating subset of the nilradical is applied: the
    operators that kill a vector also kill their brackets, so the joint
    kernel is the same as over all raising operators, at a fraction of
    the cost."""
    if b.rank != m.rank:
        raise RankMismatchError("order rank differs from module rank")
    zset = set(zdegs) if zdegs is not None else None
    flt = None if zset is None else (lambda key: key[1] in zset)
    return singular_blocks(m, nilradical_generating_terms(b), block_filter=flt)


@dataclass
class SimplicityVerdict:
    simple: bool
    method: str
    detail: str = ""
    witness: Optional[Vec] = None
    witness_weight: Optional[Weight] = None

    def __bool__(self):
        return self.simple


def is_simple(m: FiniteWModule, seed: int = 0) -> SimplicityVerdict:
    """Decide simplicity by the highest-weight certificate.

    Every nonzero invariant subspace contains a vector killed by the
    raising operators of the degree-supported triangular decomposition, so
    the module is simple exactly when those vectors form a single line
    whose generated subspace is everything.  A singular vector v that
    generates gives M = U(n-)v, so v alone spans the top weight space and
    no second singular line can generate as well.  Two or more independent
    singular lines therefore mean "not simple": one of them generates a
    proper submodule and is returned as the witness, and the verdict
    stands even where none is found.  Every step is exact: the joint
    kernels and the closures inside ``submodule_generated``.

    ``seed`` is unused; it is kept for callers that still pass it."""
    if m.dim == 0:
        return SimplicityVerdict(False, "dimension", "zero module")
    if m.dim == 1:
        return SimplicityVerdict(True, "dimension", "one-dimensional")
    b = BorelOrder("natural", m.rank, extension="max")
    cands = [(key, v) for key, vecs in singular_vectors(m, b).items() for v in vecs]
    if not cands:
        raise NonBasisElementError("no highest-weight vector found; "
                                   "module is not weight-finite")
    for key, v in cands:
        sub = submodule_generated(m, [v])
        if not sub.full:
            return SimplicityVerdict(False, "witness",
                                     f"singular vector at {key[0]} generates "
                                     f"dim {sub.dim} < {m.dim}",
                                     witness=v, witness_weight=key[0])
    if len(cands) == 1:
        return SimplicityVerdict(True, "highest-weight",
                                 f"unique singular line at {cands[0][0][0]} generates")
    return SimplicityVerdict(False, "highest-weight",
                             f"{len(cands)} independent singular lines")


def psi_invariants(m: FiniteWModule) -> GlModule:
    """Joint kernel of the degree -1 operators, as a gl module."""
    n = m.rank
    partials = [(0, i) for i in range(1, n + 1)]
    ech = RationalEchelon()
    for vecs in singular_blocks(m, partials).values():
        for v in vecs:
            ech.insert(v)
    # E_ij acts as x_i d_j
    gens = {(i, j): (1 << (i - 1), j)
            for i in range(1, n + 1) for j in range(1, n + 1)}
    return restrict_to_span(m, ech, gens, name=f"Psi({m.name})" if m.name else "Psi")


# ---------------------------------------------------------------- checks and maps


def check_representation(m: FiniteWModule, terms: list[Term] | None = None,
                         vectors: Iterable[int] | None = None) -> list:
    """Violations of [x,y].v = x.(y.v) - (-1)^(p(x)p(y)) y.(x.v)."""
    n = m.rank
    terms = terms if terms is not None else local_terms(n)
    cols = range(m.dim) if vectors is None else list(vectors)
    bad = []
    for x in terms:
        xe = WElement(n, {x: Fraction(1)})
        px = term_parity(x)
        for y in terms:
            ye = WElement(n, {y: Fraction(1)})
            br = bracket(xe, ye)
            sign = -1 if px and term_parity(y) else 1
            for c in cols:
                v = {c: Fraction(1)}
                lhs = m.act(br, v)
                rhs = m.act_term(x, m.act_term(y, v))
                vec_axpy(rhs, -sign, m.act_term(y, m.act_term(x, v)))
                vec_axpy(lhs, -1, rhs)
                if lhs:
                    bad.append((x, y, c))
    return bad


# ---------------------------------------------------------------- serialization


def _frac_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def module_to_json(m: FiniteWModule, terms: list[Term] | None = None) -> str:
    """Materialize the action of the given terms (default: all) as JSON."""
    n = m.rank
    terms = terms if terms is not None else all_terms(n)
    cols: dict = {}
    for t in terms:
        mat: dict = {}
        for j in range(m.dim):
            col = m.column(t, j)
            if col:
                mat[str(j)] = {str(r): _frac_str(x) for r, x in sorted(col.items())}
        if mat:
            cols[f"{t[0]}|{t[1]}"] = mat
    payload = {
        "rank": n,
        "dim": m.dim,
        "name": m.name,
        "weights": [m.weights[j].to_json() for j in range(m.dim)],
        "labels": [m.label(j) for j in range(m.dim)],
        "columns": cols,
    }
    return json.dumps(payload, sort_keys=True)


def module_from_json(text: str) -> FiniteWModule:
    payload = json.loads(text)
    n = payload["rank"]
    weights = [Weight.from_json(w) for w in payload["weights"]]
    cols: dict[Term, dict[int, Vec]] = {}
    for key, mat in payload["columns"].items():
        mask_s, j_s = key.split("|")
        term = (int(mask_s), int(j_s))
        cols[term] = {
            int(c): {int(r): Fraction(x) for r, x in col.items()}
            for c, col in mat.items()
        }

    def term_fn(term: Term) -> dict:
        return cols.get(term, {})

    return FiniteWModule(n, weights, term_fn=term_fn,
                         name=payload.get("name", ""),
                         labels=payload.get("labels"))
