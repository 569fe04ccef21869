"""The span engine, written once against a small module protocol.

Both module kinds, the superderivation modules (``FiniteWModule``) and the
plain gl(n) modules (``GlModule``), expose

    dim             -> int
    rank            -> int
    weights         -> list[Weight], one per basis vector
    weight_blocks() -> dict[block_key, list[int]]   (a partition of 0..dim-1)
    column(gen, j)  -> sparse dict row -> coeff
    gen_keys()      -> generator keys of the acting algebra; they include
                       the Cartan, so they pin weight blocks
    character()     -> formal character, comparable within one kind

where every operator ``gen`` is block-homogeneous: it maps each block into
at most one other block.  Closure, restriction to an invariant span, the
joint kernel, the hom space and the isomorphism check live here, with the
operator span as the tests' oracle; the builder files keep only their
builders.
"""
from __future__ import annotations

import random
from typing import Callable, Iterable, Optional

from .errors import NonBasisElementError, RankMismatchError
from .linalg import (
    DEFAULT_PRIME,
    ModPEchelon,
    RationalEchelon,
    Vec,
    kernel_basis,
    vec_axpy,
    vec_mod,
)


def apply_gen(m, gen, vec: Vec) -> Vec:
    out: Vec = {}
    for j, c in vec.items():
        vec_axpy(out, c, m.column(gen, j))
    return out


def module_closure(m, gen_keys, seeds: Iterable[Vec]) -> RationalEchelon:
    """Smallest span containing the seeds and stable under the generator
    operators, exactly."""
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


def restricted_action(m, ech: RationalEchelon) -> tuple[list, Callable]:
    """Weights and action columns of an invariant span on its echelon rows.

    Returns the weight of each row, in insertion order, and a function
    ``col(gen, t)`` giving the image of row t under ``gen`` in coordinates
    over the rows.  Raises NonBasisElementError when a row mixes weights,
    or, from ``col``, when the span is not invariant."""
    rows = [ech.rows[p] for p in ech.order]
    index = {p: t for t, p in enumerate(ech.order)}
    weights = []
    for row in rows:
        ws = {m.weights[j] for j in row}
        if len(ws) != 1:
            raise NonBasisElementError("span basis vector mixes weights")
        weights.append(ws.pop())

    def col(gen, t: int) -> Vec:
        img = apply_gen(m, gen, rows[t])
        if not img:
            return {}
        coeffs = ech.express(img)
        if coeffs is None:
            raise NonBasisElementError("span is not invariant under the action")
        return {index[p]: c for p, c in coeffs.items() if c}

    return weights, col


def singular_blocks(m, gen_keys, block_filter: Callable | None = None) -> dict:
    """Joint kernel of the generator operators, one entry per block that
    carries a nonzero kernel.  Each block is solved exactly by
    ``kernel_basis``, which stops reading equations once they pin every
    coordinate, so a block with a zero kernel costs no more than its rank."""
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
    block-diagonal across shared weight blocks by construction.  That
    ansatz is complete only when gen_keys contains the Cartan operators,
    which forces every intertwiner to preserve weight blocks.

    The commutation equations go straight to ``kernel_basis``: one exact
    sparse echelon, which stops reading equations once they pin every
    unknown to zero.  No mod-p pass is needed in either direction."""
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
    local = kernel_basis(rows, len(uidx))
    rev = {ui: key for key, ui in uidx.items()}
    return [{rev[ui]: c for ui, c in v.items()} for v in local]


def hom_space(a, b) -> list[dict]:
    """Basis of the intertwiners a -> b of two modules of one kind.

    It is complete: ``a.gen_keys()`` contains the Cartan, so every
    intertwiner preserves weight blocks, as ``hom_basis`` assumes."""
    if a.rank != b.rank:
        raise RankMismatchError("rank mismatch")
    return hom_basis(a, b, a.gen_keys())


def iso_check(a, b, seed: int = 0) -> Optional[dict]:
    """Invertible intertwiner between two modules of one kind, or None."""
    if a.rank != b.rank or a.dim != b.dim:
        return None
    if a.character() != b.character():
        return None
    return invertible_combination(a, b, hom_space(a, b), seed=seed)


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


def invertible_combination(m1, m2, homs: list[dict], seed: int = 0) -> Optional[dict]:
    """Search the hom space for an invertible element; None if not found.

    Invertibility is decided exactly, block by weight block."""
    if not homs or m1.dim != m2.dim:
        return None
    blocks1 = m1.weight_blocks()
    blocks2 = m2.weight_blocks()
    if set(blocks1) != set(blocks2):
        return None
    for key in blocks1:
        if len(blocks1[key]) != len(blocks2[key]):
            return None

    def is_invertible(phi: dict) -> bool:
        images: dict = {}  # col1 -> its image, row2 -> coeff
        for (r2, c1), a in phi.items():
            images.setdefault(c1, {})[r2] = a
        # rank per weight block must be full
        for cols1 in blocks1.values():
            ech = RationalEchelon()
            for c1 in cols1:
                ech.insert(images.get(c1, {}))
            if ech.dim < len(cols1):
                return False
        return True

    for phi in homs:
        if is_invertible(phi):
            return phi
    rng = random.Random(seed)
    for _ in range(12):
        combo: dict = {}
        for phi in homs:
            c = rng.randint(-3, 3)
            if not c:
                continue
            for key, a in phi.items():
                nv = combo.get(key, 0) + c * a
                if nv:
                    combo[key] = nv
                else:
                    combo.pop(key, None)
        if combo and is_invertible(combo):
            return combo
    return None
