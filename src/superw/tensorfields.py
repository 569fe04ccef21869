"""Tensor-field modules Lambda(n) (x) X and the simple modules inside them.

The action, a derivation part on the Grassmann coefficient plus a gl
correction contracted through the base module, is the column kernel
``modules.field_columns``, which also gives every column of the upward
induction ``kac_plus``.  Duality with the downward induction is checked
by an explicit invertible intertwiner, and the simple module attached to
a partition pair is cut out as the cyclic submodule on the
interleaved-order singular vector.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NonBasisElementError, RankMismatchError
from .glmodules import gl_simple
from .grassmann import indices_of
from .induction import kac_plus
from .linalg import Vec
from .modules import (
    FiniteWModule,
    GlModule,
    SimplicityVerdict,
    Submodule,
    dual_module,
    field_columns,
    is_simple,
    submodule_generated,
)
from .partitions import aspartition, stable_highest_weight
from .spanops import iso_check, singular_blocks
from .walgebra import BorelOrder, triangular_terms
from .weights import Weight


def tensor_field(x: GlModule, n: int) -> FiniteWModule:
    """Lambda(n) (x) X with the coefficient-plus-contraction action."""
    if x.rank != n:
        raise RankMismatchError(f"base rank {x.rank} vs algebra rank {n}")
    dx = x.dim
    weights: list[Weight] = []
    labels: list[str] = []
    for f in range(1 << n):
        lift = Weight(tuple((i, 1) for i in indices_of(f)))
        tag = "x" + "".join(str(i) for i in indices_of(f)) + "|" if f else ""
        for v in range(dx):
            weights.append(x.weights[v] + lift)
            labels.append(tag + f"x{v}")

    return FiniteWModule(
        n, weights, col_fn=field_columns(x.column, dx), name=f"T({x.name or 'X'})",
        labels=labels,
        meta={"kind": "tensor_field", "base_dim": dx, "base_name": x.name},
    )


@dataclass
class DualityReport:
    """Outcome of matching a tensor-field module with a dual induction."""
    rank: int
    base_name: str
    passes: bool
    dim: int
    intertwiner: dict | None = None


def coinduction_duality_check(x: GlModule, n: int, seed: int = 0) -> DualityReport:
    """T(X) should be the full dual of the downward induction from X*.

    ``seed`` is unused; it is kept for callers that still pass it."""
    t = tensor_field(x, n)
    k = dual_module(kac_plus(dual_module(x), n))
    phi = iso_check(t, k)
    return DualityReport(rank=n, base_name=x.name or "X", passes=phi is not None,
                         dim=t.dim, intertwiner=phi)


def interleaved_min_borel(n: int) -> BorelOrder:
    return BorelOrder("interleaved", n, "min")


def _singular_line(t: FiniteWModule, hw: Weight, b: BorelOrder) -> Vec:
    sing = singular_blocks(t, triangular_terms(b)[0],
                           block_filter=lambda w: w == hw)
    vecs = sing.get(hw)
    if not vecs:
        raise NonBasisElementError(f"no singular vector of weight {hw}")
    return vecs[0]


def extract_L_minus_submodule(lam, mu, n: int) -> Submodule:
    """The cyclic submodule of T(V(lam|mu)) on the interleaved singular
    vector, kept as a span inside its parent."""
    lam, mu = aspartition(lam), aspartition(mu)
    hw = stable_highest_weight(lam, mu, "interleaved", n)
    x = gl_simple(lam, mu, n, order="interleaved")
    t = tensor_field(x, n)
    v = _singular_line(t, hw, interleaved_min_borel(n))
    sub = submodule_generated(t, [v])
    t.meta["highest_weight"] = hw
    return sub


def extract_L_minus(lam, mu, n: int) -> FiniteWModule:
    """The simple module attached to a partition pair, realized inside the
    tensor-field module over the interleaved-order simple base."""
    lam, mu = aspartition(lam), aspartition(mu)
    sub = extract_L_minus_submodule(lam, mu, n)
    hw = sub.parent.meta["highest_weight"]
    out = sub.module()
    out.name = f"L-({lam}|{mu},n={n})"
    out.meta["highest_weight"] = hw
    out.meta["ambient_dim"] = sub.parent.dim
    out.meta["proper"] = sub.dim < sub.parent.dim
    return out


def tensor_field_simplicity(lam, mu, n: int) -> SimplicityVerdict:
    """Simplicity of the full tensor-field module over V(lam|mu)."""
    lam, mu = aspartition(lam), aspartition(mu)
    x = gl_simple(lam, mu, n, order="interleaved")
    return is_simple(tensor_field(x, n))
