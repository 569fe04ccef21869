"""Finite-dimensional weight modules over the superderivation algebra.

A module is a weight-graded basis plus a rule producing the sparse action
column of any algebra basis term on any basis vector, evaluated when it
is read, so large modules only pay for the operators a computation
actually touches.  The module stores no column: closed-form sources are
recomputed, and echelon-derived and recursive ones memoize themselves.

A gl(n) module is a ``GlModule``: the same class, acted on by the
degree-zero terms x_i d_j = E_ij alone.  Duals, tensor products,
restrictions and quotients keep the class of their input.

The z-degree of a basis vector always equals the coordinate sum of its
weight, and the parity is that number mod 2; constructions below all
preserve this, so both gradings are derived from the weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional

from .errors import NonBasisElementError, RankMismatchError
from .grassmann import (
    GrassmannElement,
    basis as grassmann_basis,
    inversion_mask,
)
from .linalg import RationalEchelon, Vec, vec_axpy
from .spanops import (apply_gen, block_kernel, coinvariant_blocks,
                      module_closure, restricted_action, singular_blocks)
from .walgebra import (
    BorelOrder,
    Term,
    WElement,
    basis_terms,
    bracket,
    generating_terms,
    term_parity,
    term_weight,
    triangular_terms,
    w_apply,
)
from .weights import Weight


def local_terms(n: int) -> list[Term]:
    """Basis terms of the three lowest z-degrees, the default pairs of
    ``check_representation``.  Spans and hom spaces use the n + 3 terms
    of ``generating_terms`` instead: they generate the algebra, while the
    bracket check needs the brackets of these lowest degrees themselves."""
    return basis_terms(n, -1) + basis_terms(n, 0) + basis_terms(n, 1)


class FiniteWModule:
    """Weight module whose action columns are evaluated as they are read.

    ``col_fn(term, j)``, the one column source, gives the sparse column of
    a term on basis vector j; ``column`` calls it on every read, so a
    source whose columns are costly memoizes them itself.
    Weight blocks are keyed by their weight, which also fixes their
    z-degree and parity.
    """

    def __init__(self, rank: int, weights: list[Weight], col_fn: Callable,
                 name: str = "", meta: dict | None = None):
        self.rank = rank
        self.weights = list(weights)
        self.zdegs = [w.total() for w in self.weights]
        self.parities = [z % 2 for z in self.zdegs]
        self.name = name
        self.meta = meta or {}
        self._col_fn = col_fn
        self._blocks = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def gen_keys(self) -> list[Term]:
        return generating_terms(self.rank)

    def check_keys(self) -> list[Term]:
        """The terms whose brackets ``check_representation`` checks by default."""
        return local_terms(self.rank)

    def column(self, term: Term, j: int) -> Vec:
        return self._col_fn(term, j)

    def act_term(self, term: Term, vec: Vec) -> Vec:
        return apply_gen(self, term, vec)

    def act(self, x: WElement, vec: Vec) -> Vec:
        if x.rank != self.rank:
            raise RankMismatchError(f"operator rank {x.rank} vs module rank {self.rank}")
        out: Vec = {}
        for term, c in x.terms.items():
            vec_axpy(out, c, self.act_term(term, vec))
        return out

    def weight_blocks(self) -> dict[Weight, list[int]]:
        """The basis vectors of each weight, keyed by that weight, in order
        of first occurrence."""
        if self._blocks is None:
            blocks: dict = {}
            for j, w in enumerate(self.weights):
                blocks.setdefault(w, []).append(j)
            self._blocks = blocks
        return self._blocks

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


class GlModule(FiniteWModule):
    """Module over the degree-zero part gl(rank), where E_ij is the term
    x_i d_j, keyed ``(1 << (i - 1), j)``; only those terms act.

    Spans and hom spaces run over the n(n-1) terms E_ij with i != j: a
    Cartan term maps a weight vector to a multiple of itself, so it adds
    nothing to a closure of weight vectors, and a block-diagonal map
    commutes with it.  The bracket check keeps all n^2 terms."""

    def gen_keys(self) -> list[Term]:
        return [t for t in basis_terms(self.rank, 0) if t[0] != 1 << (t[1] - 1)]

    def check_keys(self) -> list[Term]:
        return basis_terms(self.rank, 0)


@dataclass
class Character:
    """Formal character: multiplicities keyed by (dense weight, z-degree)."""
    rank: int
    entries: dict

    def total_dim(self) -> int:
        return sum(self.entries.values())


# ---------------------------------------------------------------- standard modules


def lambda_module(n: int) -> FiniteWModule:
    """The Grassmann algebra itself, with basis all monomials."""
    masks = [m for k in range(n + 1) for m in grassmann_basis(n, k)]
    index = {m: j for j, m in enumerate(masks)}
    weights = [Weight.from_dense(m >> i & 1 for i in range(n)) for m in masks]

    def col(term: Term, j: int) -> Vec:
        x = WElement(n, {term: Fraction(1)})
        out = w_apply(x, GrassmannElement({masks[j]: Fraction(1)}))
        return {index[m]: c for m, c in out.terms.items()}

    return FiniteWModule(n, weights, col_fn=col, name="Lambda")


def adjoint_module(n: int) -> FiniteWModule:
    """The algebra acting on itself by the bracket."""
    terms = basis_terms(n)
    index = {t: j for j, t in enumerate(terms)}
    weights = [term_weight(t) for t in terms]

    def col(term: Term, j: int) -> Vec:
        x = WElement(n, {term: Fraction(1)})
        y = WElement(n, {terms[j]: Fraction(1)})
        out = bracket(x, y)
        return {index[t]: c for t, c in out.terms.items()}

    return FiniteWModule(n, weights, col_fn=col, name="adjoint")


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
    return type(a)(a.rank, weights, col_fn=col, name=name)


def dual_module(m: FiniteWModule) -> FiniteWModule:
    """Contragredient module: (x.f)(v) = -(-1)^(p(x)p(f)) f(x.v)."""
    blocks = m.weight_blocks()
    neg = {w: -w for w in blocks}
    weights = [neg[w] for w in m.weights]

    # parity of a dual vector equals the parity of its partner; dual column
    # j reads m's columns on the one block the term maps into weight w_j,
    # each (term, block) once
    @cache
    def transpose(term: Term, w: Weight) -> dict:
        mat: dict = {}
        tp = term_parity(term)
        for c in blocks.get(w - term_weight(term), ()):
            for r, x in m.column(term, c).items():
                # entry c of dual column r is -(-1)^(p(t)p(e^r)) * x
                mat.setdefault(r, {})[c] = x if (tp and m.parities[r]) else -x
        return mat

    def col(term: Term, j: int) -> Vec:
        return transpose(term, m.weights[j]).get(j, {})

    name = f"({m.name})*" if m.name else ""
    return type(m)(m.rank, weights, col_fn=col, name=name)


def field_columns(x_col: Callable, dx: int) -> Callable:
    """Column function of the tensor fields Lambda(n) (x) X on f (x) v,
    indexed f * dx + v, where X has dimension dx and ``x_col(E_ij, v)``
    gives the column of E_ij on v: a derivation part on the coefficient
    plus a gl correction contracted through X,

        (xi^a d_j).(f (x) v) = (xi^a d_j f) (x) v
                               + (-1)^{p(a,j) p(f)} sum_i d_i(xi^a) f (x) E_ij v."""

    def col(term: Term, j: int) -> Vec:
        f, v = divmod(j, dx)
        a, tj = term
        out: Vec = {}
        bitj = 1 << (tj - 1)
        # a hit's removal and merge signs are one popcount, as in bracket
        if f & bitj:
            rem = f ^ bitj
            if not a & rem:
                odd = ((inversion_mask(a) & rem) ^ (f & (bitj - 1))).bit_count() & 1
                out[(a | rem) * dx + v] = -1 if odd else 1
        # the parity sign on the contraction term is what makes the bracket
        # relation close; the representation check pins it uniquely
        sgn = -1 if term_parity(term) else 1
        rest_bits = a
        while rest_bits:
            bit = rest_bits & -rest_bits
            rest_bits ^= bit
            rest = a ^ bit
            if rest & f:
                continue
            odd = ((inversion_mask(rest) & f) ^ (a & (bit - 1))).bit_count() & 1
            c0 = -sgn if odd else sgn
            base = (rest | f) * dx
            for r, c in x_col((bit, tj), v).items():
                key = base + r
                nv = out.get(key, 0) + c0 * c
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return out

    return col


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
    under ``m.gen_keys()``, which with the Cartan generate the algebra.

    The Cartan separates weights, so the submodule of a vector is that of
    its weight components: each seed is split into them, in the order its
    support first meets their blocks, before the closure."""
    parts: list[Vec] = []
    for s in seeds:
        comps: dict = {}
        for j, x in s.items():
            if x:
                comps.setdefault(m.weights[j], {})[j] = x
        parts.extend(comps.values())
    return Submodule(parent=m, echelon=module_closure(m, m.gen_keys(), parts))


def restrict_module(m: FiniteWModule, ech: RationalEchelon, name: str = "") -> FiniteWModule:
    """Present an invariant span on its echelon basis."""
    weights, col = restricted_action(m, ech)
    return type(m)(m.rank, weights, col_fn=col, name=name, meta=dict(m.meta))


def quotient_module(m: FiniteWModule, sub: Submodule, name: str = "") -> FiniteWModule:
    """Quotient by an invariant span, on the basis of non-pivot coordinates;
    each column is an echelon reduction, so it is memoized."""
    if sub.parent is not m:
        raise ValueError("submodule belongs to a different parent")
    if sub.full:
        raise ValueError("cannot quotient by the full module")
    ech = sub.echelon
    free = [j for j in range(m.dim) if j not in ech.rows]
    index = {j: t for t, j in enumerate(free)}
    weights = [m.weights[j] for j in free]

    @cache
    def col(term: Term, t: int) -> Vec:
        red = ech.reduce(m.column(term, free[t]))
        return {index[j]: c for j, c in red.items()}

    return type(m)(m.rank, weights, col_fn=col, name=name or f"{m.name}/sub")


# ---------------------------------------------------------------- structure analysis


def singular_vectors(m: FiniteWModule, b: BorelOrder) -> dict:
    """Joint kernels of the raising operators of b, keyed by block weight.

    Only the raising set of ``triangular_terms(b)``, which generates them,
    is applied: operators that kill a vector also kill their brackets, so
    the joint kernel is the same, at a fraction of the cost.  It holds the
    simple root vectors of b, so by the sl2 bound (``BorelOrder``) only
    the b-dominant blocks are solved.  A caller after one weight, and so
    one layer, asks ``singular_space``, which solves that block alone."""
    if b.rank != m.rank:
        raise RankMismatchError("order rank differs from module rank")
    return singular_blocks(m, triangular_terms(b)[0], block_filter=b.dominant)


def singular_space(m: FiniteWModule, b: BorelOrder, hw: Weight) -> list[Vec]:
    """Joint kernel of the raising terms of b on the one block of weight hw,
    the same solve ``singular_vectors`` makes there: empty when hw does not
    occur or is not b-dominant, where the sl2 bound (``BorelOrder``) leaves
    none."""
    blocks = m.weight_blocks()
    if hw not in blocks or not b.dominant(hw):
        return []
    return block_kernel(m, blocks[hw], triangular_terms(b)[0])


def singular_line(m: FiniteWModule, b: BorelOrder, hw: Weight) -> Vec:
    """The first vector of ``singular_space``, which generates both cyclic
    simple modules: a gl(n) simple in a mixed tensor (``cyclic_simple``)
    and L- in the tensor fields (``extract_L_minus``).  Raises
    NonBasisElementError when hw does not occur or has no such vector."""
    if hw not in m.weight_blocks():
        raise NonBasisElementError(f"weight {hw} does not occur")
    vecs = singular_space(m, b, hw)
    if not vecs:
        raise NonBasisElementError(f"no singular vector of weight {hw}")
    return vecs[0]


@dataclass
class SimplicityVerdict:
    simple: bool
    method: str
    detail: str = ""
    witness: Optional[Vec] = None
    witness_weight: Optional[Weight] = None

    def __bool__(self):
        return self.simple


def generates(m: FiniteWModule, w: Weight, v: Vec, b: BorelOrder) -> bool:
    """Whether v, of weight w and killed by the raising terms of b,
    generates m.  U(g)v = U(n-)v by PBW for W(n) = n- + h + n+, and that
    is m exactly when m = Cv + n-m (graded Nakayama: n- strictly lowers a
    grading bounded on m).  Here n- is the negative roots plus W_{-1} for
    "max", or plus W_{>=1} for "min", so it lowers N times the z-degree,
    or -N times it for "min", plus the pairing with b's rho, once N
    exceeds the rho shift of every term.  The lowering terms of
    ``triangular_terms(b)`` generate n-, so no block may keep a
    coinvariant once v is added (``coinvariant_blocks``, which stops at
    the first); they hold every simple f = x_{s_(k+1)} d_{s_k}, so by the
    sl2 bound (``BorelOrder``) only b-dominant blocks can, and only they
    are solved.  "zero" is no triangular datum, as its n+ leaves W_{-1}
    out and U(g)v is more than U(n-)v: ValueError."""
    if b.extension == "zero":
        raise ValueError("generation needs a triangular Borel datum, "
                         "extension 'min' or 'max'")
    _, lowering = triangular_terms(b)
    return next(coinvariant_blocks(m, lowering, {w: v}, b.dominant), None) is None


def top_generator(m: FiniteWModule, lam: Weight) -> Optional[Vec]:
    """The vector of weight lam that the natural "max" raising terms kill,
    when they kill one line there and it generates m; else None."""
    b = BorelOrder("natural", m.rank, "max")
    vecs = singular_space(m, b, lam)
    return vecs[0] if len(vecs) == 1 and generates(m, lam, vecs[0], b) else None


def highest_weight_verdict(m: FiniteWModule, sing: dict) -> SimplicityVerdict:
    """Simplicity of m from its natural "max" singular vectors, keyed by
    weight as ``singular_vectors`` gives them, which by the sl2 bound
    (``BorelOrder``) lie at dominant weights only.  Every nonzero
    submodule holds one, so m is simple exactly when they form one line
    that generates m.  One that does not generate is the witness; a
    generating v spans the top weight space of m = U(n-)v, so two or more
    lines mean "not simple" even where no witness is found."""
    cands = [(w, v) for w, vecs in sing.items() for v in vecs]
    if not cands:
        raise NonBasisElementError("no highest-weight vector found; "
                                   "module is not weight-finite")
    b = BorelOrder("natural", m.rank, "max")
    for w, v in cands:
        if not generates(m, w, v, b):
            return SimplicityVerdict(
                False, "witness", f"singular vector at {w} generates a proper submodule",
                witness=v, witness_weight=w)
    if len(cands) == 1:
        return SimplicityVerdict(True, "highest-weight",
                                 f"unique singular line at {cands[0][0]} generates")
    return SimplicityVerdict(False, "highest-weight",
                             f"{len(cands)} independent singular lines")


def is_simple(m: FiniteWModule, seed: int = 0) -> SimplicityVerdict:
    """Decide simplicity exactly by the highest-weight certificate
    (``highest_weight_verdict``) for W(n) = n- + h + n+ in the natural
    "max" order.  ``seed`` is unused; it is kept for callers that pass it."""
    if m.dim == 0:
        return SimplicityVerdict(False, "dimension", "zero module")
    if m.dim == 1:
        return SimplicityVerdict(True, "dimension", "one-dimensional")
    b = BorelOrder("natural", m.rank, extension="max")
    return highest_weight_verdict(m, singular_vectors(m, b))


def iso_check(a: FiniteWModule, b: FiniteWModule, seed: int = 0) -> Optional[Vec]:
    """A vector of a certifying that a is isomorphic to the simple module b,
    or None when they are not.  With b simple of top weight lam, a module
    generated by a singular vector of weight lam has b as its unique simple
    quotient, so a is isomorphic to b exactly when they share a character
    and a has such a vector that generates it (``top_generator``).  When b
    is not simple, a simple a means None, and an a that is not simple
    either is outside the contract: ValueError.  ``seed`` is unused."""
    if a.rank != b.rank or a.character() != b.character():
        return None
    sing = singular_vectors(b, BorelOrder("natural", b.rank, "max"))
    if sing and highest_weight_verdict(b, sing).simple:
        (lam,) = sing
        return top_generator(a, lam)
    if is_simple(a).simple:
        return None
    raise ValueError("iso_check needs a simple module b; neither is simple")


def psi_invariants(m: FiniteWModule) -> GlModule:
    """Joint kernel of the degree -1 operators, as a gl module: E_ij acts
    as x_i d_j, the same term in both modules."""
    n = m.rank
    partials = [(0, i) for i in range(1, n + 1)]
    ech = RationalEchelon()
    for vecs in singular_blocks(m, partials).values():
        for v in vecs:
            ech.insert(v)
    weights, col = restricted_action(m, ech)
    return GlModule(n, weights, col_fn=col,
                    name=f"Psi({m.name})" if m.name else "Psi")


# ---------------------------------------------------------------- checks and maps


def check_representation(m: FiniteWModule, terms: list[Term] | None = None,
                         vectors: Iterable[int] | None = None) -> list:
    """Violations of [x,y].v = x.(y.v) - (-1)^(p(x)p(y)) y.(x.v)."""
    n = m.rank
    terms = terms if terms is not None else m.check_keys()
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
