"""Tensor-field modules Lambda(n) (x) X and the simple modules inside them.

The action, a derivation part on the Grassmann coefficient plus a gl
correction contracted through the base module, is the column kernel
``modules.field_columns``, which also gives every column of the upward
induction ``kac_plus``.  Duality with the downward induction is checked
by an explicit invertible intertwiner, and the simple module attached to
a partition pair is cut out as the cyclic submodule on the
interleaved-order singular vector (``modules.singular_line``, the search
that also cuts the gl(n) simples out of mixed tensors).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import RankMismatchError
from .glmodules import gl_simple
from .grassmann import indices_of
from .induction import kac_plus
from .modules import (
    FiniteWModule,
    GlModule,
    Submodule,
    dual_module,
    field_columns,
    singular_line,
    submodule_generated,
)
from .partitions import aspartition, stable_highest_weight
from .spanops import iso_check
from .walgebra import BorelOrder
from .weights import Weight


def tensor_field(x: GlModule, n: int) -> FiniteWModule:
    """Lambda(n) (x) X with the coefficient-plus-contraction action, on the
    basis f (x) v indexed f * dim X + v."""
    if x.rank != n:
        raise RankMismatchError(f"base rank {x.rank} vs algebra rank {n}")
    weights: list[Weight] = []
    for f in range(1 << n):
        lift = Weight(tuple((i, 1) for i in indices_of(f)))
        weights.extend(w + lift for w in x.weights)
    return FiniteWModule(n, weights, col_fn=field_columns(x.column, x.dim),
                         name=f"T({x.name or 'X'})")


@dataclass
class DualityReport:
    """Outcome of matching a tensor-field module with a dual induction."""
    passes: bool
    dim: int
    intertwiner: dict | None = None


def coinduction_duality_check(x: GlModule, n: int, seed: int = 0) -> DualityReport:
    """T(X) should be the full dual of the downward induction from X*.

    ``seed`` is unused; it is kept for callers that still pass it."""
    t = tensor_field(x, n)
    k = dual_module(kac_plus(dual_module(x), n))
    phi = iso_check(t, k)
    return DualityReport(passes=phi is not None, dim=t.dim, intertwiner=phi)


def extract_L_minus_submodule(lam, mu, n: int) -> Submodule:
    """The cyclic submodule of T(V(lam|mu)) on the interleaved singular
    vector, kept as a span inside its parent."""
    hw = stable_highest_weight(lam, mu, "interleaved", n)
    t = tensor_field(gl_simple(lam, mu, n, order="interleaved"), n)
    v = singular_line(t, BorelOrder("interleaved", n, "min"), hw)
    return submodule_generated(t, [v])


def extract_L_minus(lam, mu, n: int) -> FiniteWModule:
    """The simple module attached to a partition pair, realized inside the
    tensor-field module over the interleaved-order simple base."""
    lam, mu = aspartition(lam), aspartition(mu)
    out = extract_L_minus_submodule(lam, mu, n).module()
    out.name = f"L-({lam}|{mu},n={n})"
    out.meta["highest_weight"] = stable_highest_weight(lam, mu, "interleaved", n)
    return out
