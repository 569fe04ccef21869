"""The span engine, written once against a small module protocol.

Every module is a ``FiniteWModule``; a gl(n) module (``GlModule``) is one
over the degree-zero terms x_i d_j only.  A module exposes

    dim             -> int
    rank            -> int
    weights         -> list[Weight], one per basis vector
    weight_blocks() -> dict[Weight, list[int]]   (a partition of 0..dim-1)
    column(gen, j)  -> sparse dict row -> coeff
    gen_keys()      -> keys of operators that, with the Cartan, generate
                       the acting algebra
    character()     -> formal character

where every operator ``gen`` moves every weight by one fixed weight, its
own: it maps the block of weight mu into the block of weight mu + wt(gen),
and to zero when the module has no vector of that weight.  ``column``
stores nothing: closed-form column sources are recomputed on every read,
and echelon-derived and recursive ones memoize themselves.  Closure,
restriction to an invariant span, the joint kernel, the hom space and the
isomorphism check live here, with the operator span as the tests' oracle;
the builder files keep only their builders.

Closures and joint kernels predict each generator's target block from the
weights alone: a generator's shift is its own weight, so the target of any
block is a dict lookup, and no generator is applied into a weight the
module lacks.  Closures take weight vectors as seeds: every span they
build is then a sum of its weight-block pieces, so they also count the
free dimensions of each block and apply no generator into a block the
span already fills.

The isomorphism check is exact and draws no random number: two modules
are isomorphic when some basis map of their hom space is invertible on
every weight block, and are not when none is and the hom space has
dimension at most 1.  A larger hom space with no invertible basis map
raises IsomorphismUndecidedError rather than guess.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Optional

from .errors import (IsomorphismUndecidedError, NonBasisElementError,
                     RankMismatchError)
from .linalg import (
    DEFAULT_PRIME,
    ModPEchelon,
    RationalEchelon,
    Vec,
    kernel_basis,
    vec_axpy,
    vec_mod,
)
from .walgebra import term_weight


def apply_gen(m, gen, vec: Vec) -> Vec:
    out: Vec = {}
    for j, c in vec.items():
        vec_axpy(out, c, m.column(gen, j))
    return out


def block_index(m) -> list[int]:
    """The position, in ``m.weight_blocks()`` order, of each basis vector's
    block."""
    block_of = [0] * m.dim
    for b, cols in enumerate(m.weight_blocks().values()):
        for j in cols:
            block_of[j] = b
    return block_of


class _Targets:
    """The target block of each (block, generator) pair, from weights alone.

    Each block's weight is packed into one int, sum_i w_i << k(i-1): the
    code is additive, and one-to-one while every coordinate stays below
    2^(k-1) in size, which k leaves room for on a block weight plus a term
    weight, whose coordinates lie in -1..1.  ``row(b)`` lists, per
    generator, the index of the block at weight(b) + weight(gen), or -1
    when the module has no vector of that weight, so the image is zero."""

    def __init__(self, m, gen_keys):
        ws = list(m.weight_blocks())
        top = max((abs(c) for w in ws for _, c in w.items()), default=0)
        k = (top + 1).bit_length() + 1

        def code(w) -> int:
            return sum(c << k * (i - 1) for i, c in w.items())

        self.codes = [code(w) for w in ws]
        self.index = {c: b for b, c in enumerate(self.codes)}
        self.shifts = [code(term_weight(g)) for g in gen_keys]
        self.rows: list = [None] * len(ws)

    def row(self, b: int) -> list[int]:
        r = self.rows[b]
        if r is None:
            c, index = self.codes[b], self.index
            r = self.rows[b] = [index.get(c + s, -1) for s in self.shifts]
        return r


def module_closure(m, gen_keys, seeds: Iterable[Vec]) -> RationalEchelon:
    """Smallest span containing the seeds and stable under the generator
    operators, exactly.

    Every seed must be a weight vector, one whose support lies in a single
    weight block, else NonBasisElementError.  Each generator moves every
    weight by one fixed weight, so every echelon row stays inside one
    block, and once a block holds as many rows as its dimension every
    image landing in it reduces to zero.  The closure predicts the target
    block of each (block, generator) pair from the weights (``_Targets``):
    a generator's shift is its own weight.  It applies no generator into a
    weight the module lacks or into a full block, inserts no image into a
    full block, and stops once the span is everything.  Only images that
    are zero or could change nothing are skipped, so the rows, their order
    and their items are those of applying every generator to every row."""
    block_of = block_index(m)
    # the free dimensions of each block; the last 0 is that of target -1,
    # a weight the module lacks
    free = [len(cols) for cols in m.weight_blocks().values()] + [0]
    pred = _Targets(m, gen_keys)
    ech = RationalEchelon()
    queue: list = []  # pivots of rows still to apply the generators to
    for s in seeds:
        if len({block_of[j] for j, x in s.items() if x}) > 1:
            raise NonBasisElementError("closure seed mixes weight blocks")
        piv = ech.insert(s)
        if piv is not None:
            free[block_of[piv]] -= 1
            queue.append(piv)
    while queue and ech.dim < m.dim:
        p = queue.pop()
        v = ech.rows[p]
        for g, t in zip(gen_keys, pred.row(block_of[p])):
            if not free[t]:
                continue
            w = apply_gen(m, g, v)
            if not w:
                continue
            piv = ech.insert(w)
            if piv is not None:
                free[t] -= 1
                queue.append(piv)
    return ech


def restricted_action(m, ech: RationalEchelon) -> tuple[list, Callable]:
    """Weights and action columns of an invariant span on its echelon rows.

    Returns the weight of each row, in insertion order, and a function
    ``col(gen, t)`` giving the image of row t under ``gen`` in coordinates
    over the rows, memoized since each is an echelon ``express``.  Raises
    NonBasisElementError when a row mixes weights, or, from ``col``, when
    the span is not invariant."""
    rows = [ech.rows[p] for p in ech.order]
    index = {p: t for t, p in enumerate(ech.order)}
    weights = []
    for row in rows:
        ws = {m.weights[j] for j in row}
        if len(ws) != 1:
            raise NonBasisElementError("span basis vector mixes weights")
        weights.append(ws.pop())

    @cache
    def col(gen, t: int) -> Vec:
        img = apply_gen(m, gen, rows[t])
        if not img:
            return {}
        coeffs = ech.express(img)
        if coeffs is None:
            raise NonBasisElementError("span is not invariant under the action")
        return {index[p]: c for p, c in coeffs.items() if c}

    return weights, col


def block_kernel(m, cols: list[int], gen_keys) -> list[Vec]:
    """Joint kernel of the generator operators on the weight block spanned
    by the basis vectors ``cols``, in module coordinates: one exact
    ``kernel_basis`` solve, which stops reading equations once they pin
    every coordinate, so a zero kernel costs no more than the rank."""
    rows_map: dict = {}
    for g in gen_keys:
        for k, c in enumerate(cols):
            for r, x in m.column(g, c).items():
                rows_map.setdefault((g, r), {})[k] = x
    return [{cols[k]: c for k, c in v.items()}
            for v in kernel_basis(rows_map.values(), len(cols))]


def singular_blocks(m, gen_keys, block_filter: Callable | None = None) -> dict:
    """Joint kernel of the generator operators, keyed by the weight of each
    block that carries a nonzero kernel; ``block_filter`` takes that
    weight.  Each block is one ``block_kernel`` solve.  A generator whose
    target weight the module lacks (``_Targets``) adds no equation, so its
    columns on that block are not built."""
    out: dict = {}
    pred = _Targets(m, gen_keys)
    for b, (w, cols) in enumerate(m.weight_blocks().items()):
        if block_filter is not None and not block_filter(w):
            continue
        vecs = block_kernel(m, cols, [g for g, t in zip(gen_keys, pred.row(b))
                                      if t != -1])
        if vecs:
            out[w] = vecs
    return out


def burnside_full(m, gen_keys) -> bool:
    """Whether products of the generator operators span all of End mod p.

    A True answer certifies fullness over the rationals; False certifies
    nothing by itself.  No library function calls it: it is the tests'
    small-module oracle for ``modules.is_simple``."""
    p = DEFAULT_PRIME
    dim = m.dim
    target = dim * dim
    mats = []
    for g in gen_keys:
        mat: dict = {}
        for j in range(dim):
            col = vec_mod(m.column(g, j), p)
            if col:
                mat[j] = col
        mats.append(mat)

    def flat(mat: dict) -> Vec:
        return {c * dim + r: x for c, col in mat.items() for r, x in col.items()}

    def matmul(a: dict, b: dict) -> dict:
        out: dict = {}
        for c, col in b.items():
            acc: dict = {}
            for r, x in col.items():
                arow = a.get(r)
                if not arow:
                    continue
                for rr, y in arow.items():
                    nv = (acc.get(rr, 0) + x * y) % p
                    if nv:
                        acc[rr] = nv
                    else:
                        acc.pop(rr, None)
            if acc:
                out[c] = acc
        return out

    ech = ModPEchelon(p)
    ident = {j: {j: 1} for j in range(dim)}
    queue = []
    for mat in [ident] + mats:
        if ech.insert(flat(mat)) is not None:
            queue.append(mat)
    while queue and ech.dim < target:
        b = queue.pop()
        for a in mats:
            prod = matmul(a, b)
            if not prod:
                continue
            if ech.insert(flat(prod)) is not None:
                queue.append(prod)
        if ech.dim >= target:
            break
    return ech.dim >= target


def hom_basis(m1, m2, gen_keys) -> list[dict]:
    """Basis of the space of maps m1 -> m2 commuting with the generators.

    Returned maps are sparse dicts (row2, col1) -> coefficient; they are
    block-diagonal across shared weight blocks by construction, so they
    commute with the Cartan too.  They are therefore every intertwiner of
    the algebra that gen_keys and the Cartan generate: an even map
    commuting with x and y commutes with [x, y].

    The commutation equations go to ``kernel_basis``: one exact sparse
    echelon, which stops reading equations once they pin every unknown to
    zero.  No mod-p pass is needed in either direction.  Their order is
    free, since the reduced-row-echelon kernel basis is unique for a
    given solution space and order of unknowns; they are fed by
    descending leading unknown, so most become a pivot with no reduction
    and the fill stays low."""
    blocks1 = m1.weight_blocks()
    blocks2 = m2.weight_blocks()
    uidx: dict[tuple[int, int], int] = {}
    for key, cols1 in blocks1.items():
        cols2 = blocks2.get(key)
        if not cols2:
            continue
        for c1 in cols1:
            for r2 in cols2:
                uidx[(r2, c1)] = len(uidx)
    if not uidx:
        return []
    partners: dict[int, list[int]] = {}
    for (r2, c1) in uidx:
        partners.setdefault(c1, []).append(r2)
    rows: list[Vec] = []
    for g in gen_keys:
        for c1 in range(m1.dim):
            col1 = m1.column(g, c1)
            # phi(g.e_c1) - g.phi(e_c1), grouped by output row of m2
            eq: dict[int, Vec] = {}
            for r1, x in col1.items():
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
    rows.sort(key=min, reverse=True)
    local = kernel_basis(rows, len(uidx))
    rev = {ui: key for key, ui in uidx.items()}
    return [{rev[ui]: c for ui, c in v.items()} for v in local]


def hom_space(a, b) -> list[dict]:
    """Basis of the intertwiners a -> b of two modules over one algebra.

    It is complete: ``a.gen_keys()`` and the Cartan generate the algebra,
    and every intertwiner preserves weight blocks, so commutes with the
    Cartan."""
    if a.rank != b.rank:
        raise RankMismatchError("rank mismatch")
    return hom_basis(a, b, a.gen_keys())


def iso_check(a, b, seed: int = 0) -> Optional[dict]:
    """Invertible intertwiner a -> b between two modules over one algebra,
    or None when none exists.

    Exact: different ranks or characters mean None.  Otherwise the first
    basis map of Hom(a, b) that is invertible on every weight block is
    returned.  With none, a hom space of dimension at most 1 holds no
    invertible map, and a larger one raises IsomorphismUndecidedError.
    ``seed`` is unused; it is kept for callers that still pass it."""
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
