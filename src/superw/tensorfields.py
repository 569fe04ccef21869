"""Tensor-field modules Lambda(n) (x) X and the simple modules inside them.

The action, a derivation part on the Grassmann coefficient plus a gl
correction contracted through the base module, is the column kernel
``modules.field_columns``, which also gives every column of the upward
induction ``kac_plus``.  Duality with the downward induction is checked
by Frobenius reciprocity (``modules.top_generator``), and the simple
module attached to a partition pair is cut out as the cyclic submodule
on the interleaved-order singular vector (``modules.singular_line``, the
search that also cuts the gl(n) simples out of mixed tensors).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import RankMismatchError
from .glmodules import gl_simple
from .grassmann import indices_of
from .linalg import Vec
from .modules import (
    FiniteWModule,
    GlModule,
    Submodule,
    dual_module,
    field_columns,
    is_simple,
    singular_line,
    singular_vectors,
    submodule_generated,
    top_generator,
)
from .partitions import aspartition, stable_highest_weight
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
    """Outcome of T(X) against K+(X*)*, with T(X)*'s generator if it passes."""
    passes: bool
    dim: int
    generator: Vec | None = None


def coinduction_duality_check(x: GlModule, n: int, seed: int = 0) -> DualityReport:
    """Whether T(X) is the dual of the upward induction K+(X*), for a simple
    base X; ValueError otherwise.  By Frobenius reciprocity, as W>=1 kills
    Y in K+(Y), Hom_W(K+(Y), N) = Hom_gl(Y, N^{W>=1}): for Y = X* of top
    weight lam, the vectors of N of weight lam that the natural "max"
    raising terms kill, a line when N is K+(Y).  Both have dimension
    2^n dim X, so with N = T(X)* they are isomorphic exactly when such a
    vector generates N (``top_generator``).  ``seed`` is unused."""
    t = tensor_field(x, n)
    if not is_simple(x).simple:
        raise ValueError(f"coinduction duality needs a simple base, not {x!r}")
    (lam,) = singular_vectors(dual_module(x), BorelOrder("natural", n, "max"))
    u = top_generator(dual_module(t), lam)
    return DualityReport(passes=u is not None, dim=t.dim, generator=u)


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
