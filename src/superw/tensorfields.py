"""Tensor-field modules Lambda(n) (x) X and the simple modules inside them.

The action, a derivation part on the Grassmann coefficient plus a gl
correction contracted through the base module, is the column kernel
``modules.field_columns``.  ``modules.field_module`` builds the module
from it, here and for the upward induction ``kac_plus``, the tensor
fields of the base twisted by det^-1.  The two standard modules are
tensor fields too: the functions Lambda(n) = T(C), x^f at index f, and
the vector fields W(n) = T(V*) under the bracket, x^a d_j at index
a n + j - 1.  Duality with the downward
induction is checked by Frobenius reciprocity (``modules.top_generator``),
and the simple module attached to a partition pair is cut out as the
cyclic submodule on the interleaved-order singular vector
(``modules.singular_line``, the search that also cuts the gl(n) simples
out of mixed tensors): the whole module when that vector generates it
(``modules.generates``), else its closure.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import RankMismatchError
from .glmodules import gl_conatural, gl_simple, gl_trivial
from .linalg import Vec
from .modules import (
    FiniteWModule,
    GlModule,
    dual_module,
    field_module,
    generates,
    is_simple,
    singular_line,
    singular_vectors,
    submodule_generated,
    top_generator,
)
from .partitions import aspartition, stable_highest_weight
from .walgebra import BorelOrder


def tensor_field(x: GlModule, n: int) -> FiniteWModule:
    """Lambda(n) (x) X with the coefficient-plus-contraction action, on the
    basis f (x) v indexed f * dim X + v."""
    if x.rank != n:
        raise RankMismatchError(f"base rank {x.rank} vs algebra rank {n}")
    return field_module(x, name=f"T({x.name or 'X'})")


def lambda_module(n: int) -> FiniteWModule:
    """The Grassmann algebra Lambda(n) = T(C), with x^f at index f: a term
    dict {f: coefficient} is already its vector."""
    return field_module(gl_trivial(n), name="Lambda")


def adjoint_module(n: int) -> FiniteWModule:
    """W(n) acting on itself by the bracket, as the vector fields T(V*):
    x^a d_j is x^a (x) f_j, at index a * n + j - 1."""
    return field_module(gl_conatural(n), name="adjoint")


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


def extract_L_minus(lam, mu, n: int) -> FiniteWModule:
    """The simple module attached to a partition pair, realized inside the
    tensor-field module T over the interleaved-order simple base: the
    submodule that the interleaved "min" singular vector v of the stable
    highest weight generates.  When v generates T (``generates``, a
    coinvariant count for the "min" n-, the negative roots plus W_{>=1})
    that is T itself, and no closure runs; otherwise it is the exact
    closure of v, a proper submodule.  Its meta records the highest weight
    and the base simple, under "base"."""
    lam, mu = aspartition(lam), aspartition(mu)
    hw = stable_highest_weight(lam, mu, "interleaved", n)
    base = gl_simple(lam, mu, n, order="interleaved")
    t = tensor_field(base, n)
    b = BorelOrder("interleaved", n, "min")
    v = singular_line(t, b, hw)
    out = t if generates(t, hw, v, b) else submodule_generated(t, [v]).module()
    out.name = f"L-({lam}|{mu},n={n})"
    out.meta["highest_weight"] = hw
    out.meta["base"] = base
    return out
