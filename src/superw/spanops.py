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
restriction to an invariant span, the joint kernel and the coinvariant
count (``modules.generates``) live here.  The weights are the block keys:
a generator's target block is the block weight plus the generator's
weight, looked up in ``weight_blocks()``, so no generator is applied into
a weight the module lacks.  ``hom_basis`` and the operator span
``burnside_full`` have no library caller: they are the tests' oracles,
kept for the benchmark's tracer, which looks them up by name.
"""
from __future__ import annotations

from functools import cache, partial
from typing import Callable, Iterable, Iterator

from .errors import NonBasisElementError
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


def module_closure(m, gen_keys, seeds: Iterable[Vec]) -> RationalEchelon:
    """Smallest span containing the seeds and stable under the generator
    operators, exactly.

    Every seed must be a weight vector, one whose support lies in a single
    weight block, else NonBasisElementError.  Each generator moves every
    weight by one fixed weight, its own, so every echelon row stays inside
    one block, and once a block holds as many rows as its dimension every
    image landing in it reduces to zero.  The closure reads each
    generator's target block as the block weight plus the generator's
    weight.  It applies no generator into a weight the module lacks or
    into a full block, inserts no image into a full block, and stops once
    the span is everything.  Only images that are zero or could change
    nothing are skipped, so the rows, their order and their items are
    those of applying every generator to every row."""
    weights = m.weights
    shifts = [term_weight(g) for g in gen_keys]
    free = {w: len(cols) for w, cols in m.weight_blocks().items()}
    targets: dict = {}  # block weight -> each generator's target weight
    ech = RationalEchelon()
    queue: list = []  # pivots of rows still to apply the generators to
    for s in seeds:
        if len({weights[j] for j, x in s.items() if x}) > 1:
            raise NonBasisElementError("closure seed mixes weight blocks")
        piv = ech.insert(s)
        if piv is not None:
            free[weights[piv]] -= 1
            queue.append(piv)
    while queue and ech.dim < m.dim:
        p = queue.pop()
        v = ech.rows[p]
        w = weights[p]
        row = targets.get(w)
        if row is None:
            row = targets[w] = [w + d for d in shifts]
        for g, t in zip(gen_keys, row):
            if not free.get(t):  # a weight the module lacks, or a full block
                continue
            img = apply_gen(m, g, v)
            if not img:
                continue
            piv = ech.insert(img)
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
    every coordinate, so a zero kernel costs no more than the rank.  A
    generator maps the block to the block weight plus its own; where the
    module lacks that weight the image is zero, so the generator adds no
    equation and its columns are not read.  As in ``hom_basis``, the
    equations go in by descending leading unknown, which keeps the fill
    low and leaves the reduced-row-echelon basis unchanged."""
    blocks = m.weight_blocks()
    w = m.weights[cols[0]]
    rows_map: dict = {}
    for g in gen_keys:
        if w + term_weight(g) not in blocks:
            continue
        for k, c in enumerate(cols):
            for r, x in m.column(g, c).items():
                rows_map.setdefault((g, r), {})[k] = x
    rows = sorted(rows_map.values(), key=min, reverse=True)
    return [{cols[k]: c for k, c in v.items()}
            for v in kernel_basis(rows, len(cols))]


def singular_blocks(m, gen_keys, block_filter: Callable | None = None) -> dict:
    """Joint kernel of the generator operators, keyed by the weight of each
    block that carries a nonzero kernel; ``block_filter`` takes that
    weight.  Each block is one ``block_kernel`` solve."""
    out: dict = {}
    for w, cols in m.weight_blocks().items():
        if block_filter is not None and not block_filter(w):
            continue
        vecs = block_kernel(m, cols, gen_keys)
        if vecs:
            out[w] = vecs
    return out


class _Rows:
    """Rows made anew on each pass as they are read: a solve stops reading at
    full rank, and a counting reader (the benchmark's tracer) uses none up."""

    def __init__(self, make: Callable[[], Iterator[Vec]]):
        self.make = make

    def __iter__(self):
        return self.make()


def coinvariant_blocks(m, gen_keys, tops: dict | None = None,
                       block_filter: Callable | None = None) -> Iterator:
    """(w, dim M_w / (sum_g g.M_{w - wt(g)} + C tops[w])) for each weight
    block, in ``m.weight_blocks()`` order, that passes ``block_filter`` and
    has a nonzero quotient; ``tops`` maps a weight to one vector of it.
    Each is the nullity of one ``kernel_basis`` solve, fed the top, then
    the generators' columns on their source blocks, of weight w - wt(g),
    as it reads them: a full block and a caller that stops at the first
    yield read no more."""
    blocks = m.weight_blocks()
    negs = [-term_weight(g) for g in gen_keys]

    def rows(w, pos: dict) -> Iterator[Vec]:
        if tops and w in tops:
            yield {pos[j]: x for j, x in tops[w].items()}
        for g, neg in zip(gen_keys, negs):
            for c in blocks.get(w + neg, ()):  # the block g maps to w
                yield {pos[r]: x for r, x in m.column(g, c).items()}

    for w, cols in blocks.items():
        if block_filter is None or block_filter(w):
            pos = {c: t for t, c in enumerate(cols)}  # place in block
            dim = len(kernel_basis(_Rows(partial(rows, w, pos)), len(cols)))
            if dim:
                yield w, dim


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
    """Basis of the maps m1 -> m2 commuting with the generators, as sparse
    dicts (row2, col1) -> coefficient, block-diagonal across shared weight
    blocks, so every intertwiner of the algebra that gen_keys and the
    Cartan generate.  The commutation equations go to one ``kernel_basis``
    by descending leading unknown, which keeps the fill low and leaves the
    reduced-row-echelon basis unchanged."""
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
