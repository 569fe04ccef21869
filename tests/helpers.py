"""Functions that only the tests call, kept out of the library.

Each was a library name whose only callers were tests: constructors and
parsers the tests build inputs with, small readers the tests check
results with, and slower paths that a faster one replaced, kept as the
oracles the tests compare it against.  They are written against the
library's public types.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from numbers import Rational
from typing import Iterable, Mapping, Union

from superw.errors import (InhomogeneousError, NonBasisElementError,
                           RankMismatchError, RankTooSmallError)
from superw.glmodules import cyclic_simple, gl_simple, gl_trivial, mixed_tensor
from superw.grassmann import (Coeff, Monomial, format_monomial, indices_of,
                              merge_sign, removal_sign)
from superw.induction import kac_plus
from superw.linalg import RationalEchelon, Vec, kernel_basis, vec_axpy
from superw.modules import (Character, FiniteWModule, GlModule,
                            SimplicityVerdict, Submodule, dual_module,
                            singular_line, singular_vectors,
                            submodule_generated)
from superw.partitions import aspartition, stable_highest_weight
from superw.spanops import (apply_gen, coinvariant_blocks, hom_basis,
                            module_closure, singular_blocks)
from superw.tensorfields import tensor_field
from superw.walgebra import (BorelOrder, Term, WElement, basis_terms,
                             bracket, format_term, generating_terms,
                             term_degree, term_key, term_parity,
                             triangular_terms)
from superw.weights import Weight, order_sequence


# --------------------------------------------------------------- weights

class SparseWeight:
    """``Weight`` as it stood before dense coordinates: the sorted tuple of
    its nonzero (index, coefficient) pairs, rebuilt through a dict and a
    sort on every sum.  The oracle the dense class is compared against."""

    __slots__ = ("_items",)

    def __init__(self, coords: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for i, c in coords:
            i = int(i)
            c = int(c)
            if i < 1:
                raise ValueError(f"weight index {i} out of range")
            if c:
                acc[i] = acc.get(i, 0) + c
        self._items = tuple(sorted((i, c) for i, c in acc.items() if c))

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def __getitem__(self, i: int) -> int:
        for j, c in self._items:
            if j == i:
                return c
        return 0

    def __add__(self, other: "SparseWeight") -> "SparseWeight":
        return SparseWeight(self._items + other._items)

    def __sub__(self, other: "SparseWeight") -> "SparseWeight":
        return SparseWeight(self._items + tuple((i, -c) for i, c in other._items))

    def __neg__(self) -> "SparseWeight":
        return SparseWeight(tuple((i, -c) for i, c in self._items))

    def __rmul__(self, k: int) -> "SparseWeight":
        return SparseWeight(tuple((i, k * c) for i, c in self._items))

    def total(self) -> int:
        return sum(c for _, c in self._items)

    def max_index(self) -> int:
        return self._items[-1][0] if self._items else 0

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseWeight) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def dense(self, n: int) -> tuple[int, ...]:
        if self.max_index() > n:
            raise ValueError(f"weight {self} not supported within 1..{n}")
        return tuple(self[i] for i in range(1, n + 1))

    @classmethod
    def from_dense(cls, coords: Iterable[int]) -> "SparseWeight":
        return cls(tuple((i + 1, c) for i, c in enumerate(coords)))

    def to_json(self) -> dict[str, int]:
        return {str(i): c for i, c in self._items}

    def __str__(self) -> str:
        if not self._items:
            return "0"
        out = []
        for i, c in self._items:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = f"e{i}" if mag == 1 else f"{mag}*e{i}"
            out.append(f"{sign}{body}")
        s = " ".join(out)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:
        return f"Weight({self._items!r})"


# ------------------------------------------------------------- grassmann

def degree(mono: Monomial) -> int:
    return mono.bit_count()


class GrassmannElement:
    """Finite rational combination of square-free monomials: the element
    type the library kept until its term dicts, the vectors of
    Lambda(n) = T(C), took over."""

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
            return gmul_oracle(self, other)
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


def gmul_oracle(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """The product as it stood before the sign kernel: merge_sign per term
    pair, rebuilt by the validating constructor."""
    out: dict[Monomial, Coeff] = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            s = merge_sign(a, b)
            if not s:
                continue
            m = a | b
            nc = out.get(m, 0) + s * ca * cb
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return GrassmannElement(out)


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


def format_welement_oracle(x: WElement) -> str:
    """``walgebra.format_welement`` as it stood before it shared its
    formatter with the Grassmann term dicts."""
    if not x.terms:
        return "0"
    parts = []
    for t in sorted(x.terms, key=term_key):
        c = Fraction(x.terms[t])
        mag = abs(c)
        body = format_term(t)
        if mag != 1:
            body = f"{mag}*{body}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def mask_of(indices: Iterable[int]) -> Monomial:
    m = 0
    for i in indices:
        bit = 1 << (i - 1)
        if m & bit:
            raise ValueError(f"repeated index {i}")
        m |= bit
    return m


def parse_monomial(text: str) -> Monomial:
    text = text.strip()
    if text == "1":
        return 0
    parts = text.split("^")
    idx = []
    for p in parts:
        p = p.strip()
        if not p.startswith("x"):
            raise ValueError(f"bad monomial factor {p!r} in {text!r}")
        idx.append(int(p[1:]))
    if idx != sorted(idx):
        raise ValueError(f"monomial indices not ascending in {text!r}")
    return mask_of(idx)


def basis(n: int, k: int | None = None) -> list[Monomial]:
    """All monomial masks at rank n, optionally restricted to degree k."""
    if k is None:
        return list(range(1 << n))
    return [m for m in range(1 << n) if m.bit_count() == k]


def generator(i: int) -> GrassmannElement:
    return GrassmannElement({1 << (i - 1): 1})


def apply_partial(i: int, f: GrassmannElement) -> GrassmannElement:
    """Left partial derivative d_i, an odd derivation with d_i(x_j) = delta_ij."""
    bit = 1 << (i - 1)
    out: dict[Monomial, Coeff] = {}
    for m, c in f.terms.items():
        if m & bit:
            out[m ^ bit] = out.get(m ^ bit, 0) + removal_sign(i, m) * c
    return GrassmannElement(out)


def w_apply_oracle(x: WElement, f: GrassmannElement) -> GrassmannElement:
    """The action of a superderivation on a Grassmann element as it stood
    before the sign kernel, and before Lambda(n) = T(C) took it over:
    removal_sign times merge_sign on each hit."""
    out: dict[Monomial, Coeff] = {}
    for (a, j), c in x.terms.items():
        jbit = 1 << (j - 1)
        for m, cm in f.terms.items():
            if not m & jbit:
                continue
            rem = m ^ jbit
            s = removal_sign(j, m) * merge_sign(a, rem)
            if s:
                key = a | rem
                nc = out.get(key, 0) + s * c * cm
                if nc:
                    out[key] = nc
                else:
                    out.pop(key, None)
    return GrassmannElement(out)


# -------------------------------------------------------------- walgebra

def partial(rank: int, j: int) -> WElement:
    return WElement(rank, {(0, j): 1})


def z_degree(x: WElement) -> int:
    if not x.terms:
        raise InhomogeneousError("zero element has no degree")
    degs = {term_degree(t) for t in x.terms}
    if len(degs) != 1:
        raise InhomogeneousError(f"element mixes degrees {sorted(degs)}")
    return degs.pop()


def grading_element(n: int) -> WElement:
    """The diagonal element sum_i x_i d_i; its eigenvalue on a weight
    vector is the sum of its weight coordinates."""
    return WElement(n, {((1 << (i - 1)), i): 1 for i in range(1, n + 1)})


def positive_pairs(b: BorelOrder) -> list[tuple[int, int]]:
    """(i, j) with i strictly before j in the order; the root is e_i - e_j."""
    seq = b.sequence()
    return [(seq[s], seq[t]) for s in range(len(seq)) for t in range(s + 1, len(seq))]


def raising_terms(b: BorelOrder) -> list[Term]:
    """Every raising basis term of b: the positive root vectors, plus the
    d_j for "min" or every term of positive degree for "max".  The library
    uses the generators of ``triangular_terms`` in their place."""
    n = b.rank
    out: list[Term] = [(1 << (i - 1), j) for i, j in positive_pairs(b)]
    if b.extension == "min":
        out += [(0, j) for j in range(1, n + 1)]
    elif b.extension == "max":
        out += [t for t in basis_terms(n) if term_degree(t) >= 1]
    return out


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?)?\s*\*?\s*(?P<mono>(?:x\d+(?:\^x\d+)*)?)\s*(?:d(?P<target>\d+))\s*$"
)


def parse_welement(text: str, rank: int) -> WElement:
    """Parse e.g. "x1^x3 d2", "3/2*x1 d2 - d1"."""
    text = text.strip()
    if text in ("", "0"):
        return WElement(rank)
    # split into signed chunks at top level
    chunks: list[str] = []
    buf = ""
    for tok in re.split(r"\s+", text):
        if tok in ("+", "-"):
            if buf:
                chunks.append(buf)
            buf = "" if tok == "+" else "-"
        else:
            buf = f"{buf} {tok}".strip() if buf not in ("", "-") else buf + tok
    if buf:
        chunks.append(buf)
    terms: dict[Term, Coeff] = {}
    for chunk in chunks:
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff: Coeff = 1
        if m.group("coeff"):
            coeff = Fraction(m.group("coeff"))
            if coeff.denominator == 1:
                coeff = int(coeff)
        mono = parse_monomial(m.group("mono")) if m.group("mono") else 0
        j = int(m.group("target"))
        t = (mono, j)
        c = -coeff if neg else coeff
        terms[t] = terms.get(t, 0) + c
    return WElement(rank, terms)


# --------------------------------------------------------------- linalg

def vec_scaled(v: Vec, c) -> Vec:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def same_span(a: RationalEchelon, b: RationalEchelon) -> bool:
    """Whether two echelons span one space: equal dimension, and every row
    of a reduces to zero against b."""
    return a.dim == b.dim and all(not b.reduce(a.rows[p]) for p in a.order)


# -------------------------------------------------------------- modules

def trivial_module(n: int) -> FiniteWModule:
    return FiniteWModule(n, [Weight.zero()], col_fn=lambda term, j: {},
                         name="C")


def weight_of(m: FiniteWModule, vec: Vec) -> Weight:
    ws = {m.weights[j] for j in vec}
    if len(ws) != 1:
        raise NonBasisElementError("vector is not weight-homogeneous")
    return ws.pop()


def block_positions(m: FiniteWModule) -> list[int]:
    """The place, in ``m.weight_blocks()`` order, of each basis vector's
    block, read off its weight."""
    place = {w: b for b, w in enumerate(m.weight_blocks())}
    return [place[w] for w in m.weights]


def natural_max_candidates(m: FiniteWModule) -> list[tuple[Weight, Vec]]:
    """(weight, vector) for each singular vector of the natural "max" order."""
    b = BorelOrder("natural", m.rank, "max")
    return [(w, v) for w, vecs in singular_vectors(m, b).items() for v in vecs]


def restrict(ch: Character) -> dict[tuple, int]:
    """Forget the z-degree, leaving a plain gl weight character."""
    out: dict[tuple, int] = {}
    for (w, _z), m in ch.entries.items():
        out[w] = out.get(w, 0) + m
    return out


def convolve(a: Character, b: Character) -> Character:
    if a.rank != b.rank:
        raise RankMismatchError("character ranks differ")
    out: dict = {}
    for (w1, z1), m1 in a.entries.items():
        for (w2, z2), m2 in b.entries.items():
            key = (tuple(x + y for x, y in zip(w1, w2)), z1 + z2)
            nv = out.get(key, 0) + m1 * m2
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
    return Character(a.rank, out)


def is_simple_oracle(m: FiniteWModule) -> SimplicityVerdict:
    """``modules.is_simple`` as it stood before the generation test: each
    singular candidate is closed under the n lowering terms, and
    generates when its closure is everything."""
    if m.dim == 0:
        return SimplicityVerdict(False, "dimension", "zero module")
    if m.dim == 1:
        return SimplicityVerdict(True, "dimension", "one-dimensional")
    b = BorelOrder("natural", m.rank, extension="max")
    cands = [(w, v) for w, vecs in singular_vectors(m, b).items() for v in vecs]
    if not cands:
        raise NonBasisElementError("no highest-weight vector found; "
                                   "module is not weight-finite")
    _, lowering = triangular_terms(b)
    for w, v in cands:
        dim = module_closure(m, lowering, [v]).dim
        if dim < m.dim:
            return SimplicityVerdict(False, "witness",
                                     f"singular vector at {w} generates "
                                     f"dim {dim} < {m.dim}",
                                     witness=v, witness_weight=w)
    if len(cands) == 1:
        return SimplicityVerdict(True, "highest-weight",
                                 f"unique singular line at {cands[0][0]} generates")
    return SimplicityVerdict(False, "highest-weight",
                             f"{len(cands)} independent singular lines")


def psi_span_oracle(m: FiniteWModule) -> RationalEchelon:
    """The span of ``modules.psi_invariants`` as it stood before the gl
    symmetry: the joint kernel of the degree -1 operators solved on every
    weight block, with no closure."""
    partials = [(0, i) for i in range(1, m.rank + 1)]
    ech = RationalEchelon()
    for vecs in singular_blocks(m, partials).values():
        for v in vecs:
            ech.insert(v)
    return ech


# -------------------------------------------------------------- spanops

def hom_value(phi: dict, vec: Vec) -> Vec:
    """Apply a hom given as (row2, col1) -> coeff to a vector of m1."""
    out: Vec = {}
    for (r2, c1), a in phi.items():
        x = vec.get(c1)
        if x:
            nv = out.get(r2, 0) + a * x
            if nv:
                out[r2] = nv
            else:
                out.pop(r2, None)
    return out


def closure_oracle(m, gen_keys, seeds: Iterable[Vec]) -> RationalEchelon:
    """``module_closure`` as it stood before it skipped full weight blocks:
    every generator is applied to every new row and every nonzero image is
    inserted.  It takes any seed, weight vector or not."""
    ech = RationalEchelon()
    queue: list = []
    for s in seeds:
        piv = ech.insert(s)
        if piv is not None:
            queue.append(ech.rows[piv])
    while queue:
        v = queue.pop()
        for g in gen_keys:
            w = apply_gen(m, g, v)
            if not w:
                continue
            piv = ech.insert(w)
            if piv is not None:
                queue.append(ech.rows[piv])
    return ech


def hom_basis_oracle(m1, m2) -> list[dict]:
    """``spanops.hom_basis`` as it stood before it sorted its equations,
    over every basis term of the algebra instead of a generating set: the
    commutation equations go to ``kernel_basis`` in generator order.
    Both modules must be modules over the whole algebra."""
    blocks2 = m2.weight_blocks()
    uidx: dict[tuple[int, int], int] = {}
    for key, cols1 in m1.weight_blocks().items():
        for c1 in cols1:
            for r2 in blocks2.get(key, ()):
                uidx[(r2, c1)] = len(uidx)
    if not uidx:
        return []
    partners: dict[int, list[int]] = {}
    for (r2, c1) in uidx:
        partners.setdefault(c1, []).append(r2)
    rows: list[Vec] = []
    for g in basis_terms(m1.rank):
        for c1 in range(m1.dim):
            # phi(g.e_c1) - g.phi(e_c1), grouped by output row of m2
            eq: dict[int, Vec] = {}
            for r1, x in m1.column(g, c1).items():
                for r2 in partners.get(r1, ()):
                    row = eq.setdefault(r2, {})
                    ui = uidx[(r2, r1)]
                    row[ui] = row.get(ui, 0) + x
            for r2p in partners.get(c1, ()):
                ui = uidx[(r2p, c1)]
                for rr, y in m2.column(g, r2p).items():
                    row = eq.setdefault(rr, {})
                    nv = row.get(ui, 0) - y
                    if nv:
                        row[ui] = nv
                    else:
                        row.pop(ui, None)
            rows.extend(r for r in eq.values() if r)
    rev = {ui: key for key, ui in uidx.items()}
    return [{rev[ui]: c for ui, c in v.items()}
            for v in kernel_basis(rows, len(uidx))]


class IsomorphismUndecidedError(ValueError):
    """No basis map of a hom space of dimension above 1 is invertible, so
    whether some combination is remains open."""


def hom_space(a, b) -> list[dict]:
    """Basis of the intertwiners a -> b of two modules over one algebra,
    the hom-space oracle: ``hom_basis`` over ``a.gen_keys()``, which with
    the Cartan generate the algebra; every intertwiner preserves weight
    blocks, so commutes with the Cartan."""
    if a.rank != b.rank:
        raise RankMismatchError("rank mismatch")
    return hom_basis(a, b, a.gen_keys())


def iso_check_oracle(a, b):
    """The isomorphism check as it stood before the highest-weight
    certificate, for any two modules: different ranks or characters mean
    None; otherwise the first basis map of Hom(a, b) that is invertible on
    every weight block is returned.  With none, a hom space of dimension
    at most 1 holds no invertible map, and a larger one raises
    IsomorphismUndecidedError."""
    if a.rank != b.rank or a.character() != b.character():
        return None
    homs = hom_space(a, b)
    blocks = a.weight_blocks().values()
    for phi in homs:
        images: dict = {}  # col1 -> its image, row2 -> coeff
        for (r2, c1), x in phi.items():
            images.setdefault(c1, {})[r2] = x
        if all(_full_rank([images.get(c1, {}) for c1 in cols]) for cols in blocks):
            return phi
    if len(homs) > 1:
        raise IsomorphismUndecidedError(
            f"no basis map of the {len(homs)}-dimensional hom space is invertible")
    return None


def _full_rank(vecs: list[Vec]) -> bool:
    ech = RationalEchelon()
    for v in vecs:
        ech.insert(v)
    return ech.dim == len(vecs)


def direct_sum(a, b) -> FiniteWModule:
    """a (+) b on the basis of a followed by that of b, of the class of a:
    each action column of b is shifted past a's and stacked below a's."""
    def col(term, j):
        if j < a.dim:
            return a.column(term, j)
        return {a.dim + r: x for r, x in b.column(term, j - a.dim).items()}

    return type(a)(a.rank, a.weights + b.weights, col_fn=col)


def block_kernel_unsorted(m, cols: list[int], gen_keys) -> list[Vec]:
    """``spanops.block_kernel`` as it stood before it sorted its equations:
    they go to ``kernel_basis`` in generator order."""
    rows_map: dict = {}
    for g in gen_keys:
        for k, c in enumerate(cols):
            for r, x in m.column(g, c).items():
                rows_map.setdefault((g, r), {})[k] = x
    return [{cols[k]: c for k, c in v.items()}
            for v in kernel_basis(rows_map.values(), len(cols))]


def singular_blocks_oracle(m, gen_keys, block_filter=None) -> dict:
    """``singular_blocks`` as it stood before it predicted target weights:
    every generator's columns on every block feed the kernel equations."""
    out: dict = {}
    for key, cols in m.weight_blocks().items():
        if block_filter is not None and not block_filter(key):
            continue
        rows_map: dict = {}
        for g in gen_keys:
            for t, c in enumerate(cols):
                for r, x in m.column(g, c).items():
                    rows_map.setdefault((g, r), {})[t] = x
        local = kernel_basis(rows_map.values(), len(cols))
        if local:
            out[key] = [{cols[t]: c for t, c in v.items()} for v in local]
    return out


# ------------------------------------------------------------ glmodules

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


def decompose(m: GlModule, order: str = "natural") -> dict[Weight, int]:
    """Multiplicities of simples in a semisimple module, read off from
    highest-weight vectors."""
    sing = singular_blocks(m, raising_terms(BorelOrder(order, m.rank)))
    seq = order_sequence(order, m.rank)
    return {w: len(vs)
            for w, vs in sorted(sing.items(),
                                key=lambda kv: tuple(kv[0][i] for i in seq),
                                reverse=True)}


# ------------------------------------------------------------ induction

def layer_dims(m: FiniteWModule) -> dict[int, int]:
    """Dimension of each induction layer, read off the degree bookkeeping."""
    t0 = m.meta["base_total"]
    s = m.meta["layer_sign"]
    out: dict[int, int] = {}
    for w in m.weights:
        layer = s * (w.total() - t0)
        out[layer] = out.get(layer, 0) + 1
    return dict(sorted(out.items()))


def kac_plus_oracle(x: GlModule, n: int) -> FiniteWModule:
    """``kac_plus`` as it stood before its columns came from the tensor-field
    kernel: d_S (x) v is straightened by w d_i = [w, d_i] + (-1)^p(w) d_i w,
    with i the least index of S, memoized column by column.  It keeps its
    own bracket table."""
    dx = x.dim
    weights = [x.weights[v] + Weight(tuple((i, -1) for i in indices_of(mask)))
               for mask in range(1 << n) for v in range(dx)]
    brackets: dict = {}

    def bracket_terms(a: Term, b: Term) -> list:
        hit = brackets.get((a, b))
        if hit is None:
            br = bracket(WElement(n, {a: 1}), WElement(n, {b: 1}))
            hit = brackets[(a, b)] = list(br.terms.items())
        return hit

    @cache
    def col(term: Term, j: int) -> Vec:
        mask, v = divmod(j, dx)
        tm, tj = term
        if mask == 0:
            d = tm.bit_count() - 1
            if d > 0:
                return {}
            if d == 0:
                return dict(x.column(term, v))
            return {(1 << (tj - 1)) * dx + v: 1}
        bit = mask & -mask
        i = bit.bit_length()
        rj = (mask ^ bit) * dx + v
        out: Vec = {}
        for bt, bc in bracket_terms(term, (0, i)):
            vec_axpy(out, bc, col(bt, rj))
        sgn = -1 if term_parity(term) else 1
        for jj, c in col(term, rj).items():
            m2, v2 = divmod(jj, dx)
            if m2 & bit:
                continue
            key = (m2 | bit) * dx + v2
            nv = out.get(key, 0) + sgn * removal_sign(i, m2 | bit) * c
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
        return out

    return FiniteWModule(n, weights, col_fn=col)


def complement_signs(n: int) -> list[int]:
    """eps(S) = (-1)^(sum_{i in S} (i - 1)) for every mask S: the sign of
    d_S (x) v -> eps(S) x^(S^c) (x) v, as each d_s, s_1 < ... < s_k, removes
    x_s from x^[n] past the s - 1 factors before it, the largest first."""
    return [(-1) ** sum(i - 1 for i in indices_of(s)) for s in range(1 << n)]


def on_field_basis(m: FiniteWModule, n: int, eps: list[int]) -> FiniteWModule:
    """m, on the basis d_S (x) v at S * dim X + v of ``kac_plus_oracle``,
    carried to x^f (x) v at f * dim X + v, the basis of ``kac_plus``, by
    d_S (x) v -> eps[S] x^(S^c) (x) v."""
    full = (1 << n) - 1
    dx = m.dim >> n
    weights = [m.weights[(full ^ f) * dx + v] for f in range(1 << n) for v in range(dx)]

    def col(term: Term, j: int) -> Vec:
        f, v = divmod(j, dx)
        sgn = eps[full ^ f]
        out: Vec = {}
        for k, c in m.column(term, (full ^ f) * dx + v).items():
            s, w = divmod(k, dx)
            out[(full ^ s) * dx + w] = c if eps[s] == sgn else -c
        return out

    return FiniteWModule(n, weights, col_fn=col)


# --------------------------------------------------------- tensorfields

def extract_L_minus_oracle(lam, mu, n: int) -> Submodule:
    """``extract_L_minus`` as it stood before the generation test: the
    exact closure of the interleaved singular vector in T(V(lam|mu)), kept
    as a span inside its parent, whether or not it fills T."""
    hw = stable_highest_weight(lam, mu, "interleaved", n)
    t = tensor_field(gl_simple(lam, mu, n, order="interleaved"), n)
    v = singular_line(t, BorelOrder("interleaved", n, "min"), hw)
    return submodule_generated(t, [v])


def duality_oracle(x: GlModule, n: int):
    """``coinduction_duality_check`` as it stood before Frobenius
    reciprocity: the hom-space isomorphism check of T(X) against the dual
    of K+(X*), an invertible intertwiner or None."""
    return iso_check_oracle(tensor_field(x, n),
                            dual_module(kac_plus(dual_module(x), n)))


def tensor_field_oracle(x: GlModule, n: int) -> FiniteWModule:
    """``tensor_field`` as it stood before one popcount per sign: each
    hit's sign is ``removal_sign`` times ``merge_sign``."""
    dx = x.dim
    weights = [x.weights[v] + Weight(tuple((i, 1) for i in indices_of(f)))
               for f in range(1 << n) for v in range(dx)]

    def col(term: Term, j: int) -> Vec:
        f, v = divmod(j, dx)
        a, tj = term
        out: Vec = {}
        bitj = 1 << (tj - 1)
        if f & bitj:
            s = removal_sign(tj, f) * merge_sign(a, f ^ bitj)
            if s:
                out[(a | (f ^ bitj)) * dx + v] = s
        sgn = -1 if term_parity(term) else 1
        rest_bits = a
        while rest_bits:
            bit = rest_bits & -rest_bits
            rest_bits ^= bit
            i = bit.bit_length()
            ms = merge_sign(a ^ bit, f)
            if not ms:
                continue
            c0 = sgn * removal_sign(i, a) * ms
            base = ((a ^ bit) | f) * dx
            for r, c in x.column((bit, tj), v).items():
                key = base + r
                nv = out.get(key, 0) + c0 * c
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return out

    return FiniteWModule(n, weights, col_fn=col)


# ------------------------------------------------------------ stability

def restricted_character_oracle(m: FiniteWModule, window: int,
                                mode: str = "annihilator") -> Character:
    """``stability.restricted_character`` as it stood before the gl
    symmetry: every window block is solved, and each enters its own
    weight alone."""
    tail = [(mask << window, j + window)
            for mask, j in generating_terms(m.rank - window)]
    in_window = lambda w: w.max_index() <= window
    if mode == "annihilator":
        dims = ((w, len(vecs)) for w, vecs in
                singular_blocks(m, tail, block_filter=in_window).items())
    else:
        dims = coinvariant_blocks(m, tail, block_filter=in_window)
    entries: dict = {}
    for w, dim in dims:
        key = (w.dense(window), w.total())
        entries[key] = entries.get(key, 0) + dim
    return Character(window, entries)

