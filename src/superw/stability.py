"""Cross-rank stabilization checks.

A family of modules M_n over increasing rank is compared on a fixed
window of indices {1..w}.  The raw graded character on window-supported
weights is not rank-stable for most families (a weight such as e_1 picks
up new mass like xi_1 xi_j d_j at every rank), so the comparison uses the
part of the module that the tail copy of the algebra on indices {w+1..n}
does not see:

* annihilator mode: the joint kernel of the tail algebra.  This is the
  finite-rank face of the large-annihilator condition and suits modules
  whose vectors are killed by deep tails (tensor fields and their
  submodules).

* coinvariants mode: the quotient by the image of the tail algebra.
  Upward inductions have no tail-killed vectors at all (the d_i act
  freely), but their coinvariants on the window stabilize.  A block's
  coinvariant dimension is the nullity of the tail's image rows in it
  (``spanops.coinvariant_blocks``, as in ``modules.generates``).

Both modes apply only the tail's own minimal generating set, the rank
n-w ``generating_terms`` (n-w+3 terms from rank 3 on, the whole basis
below) shifted past the window: a joint kernel under a generating set is
the kernel under the algebra, and the algebra's image is the span of the
generators' images.  Both restricted characters live on weights
supported inside the window, and the sweep report records the per-rank
characters plus the first disagreement, if any.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .glmodules import gl_simple
from .induction import kac_plus
from .modules import Character, FiniteWModule
from .partitions import Partition, aspartition
from .spanops import coinvariant_blocks, singular_blocks
from .tensorfields import extract_L_minus, tensor_field
from .walgebra import BorelOrder, generating_terms


def _orbit(dense: tuple) -> Iterator[tuple]:
    """The distinct permutations of dense, each once."""
    if not dense:
        yield ()
        return
    for x in dict.fromkeys(dense):
        i = dense.index(x)
        for rest in _orbit(dense[:i] + dense[i + 1:]):
            yield (x,) + rest


def restricted_character(m: FiniteWModule, window: int,
                         mode: str = "annihilator") -> Character:
    """Graded character of the window part of m that the tail algebra
    cannot see; entries are keyed by dense window weights.

    gl(window) commutes with the tail terms and keeps a weight inside the
    window, so in either mode the window part is a finite-dimensional
    gl(window) module and its character is invariant under the
    permutations of the window coordinates, with the z-degree fixed.  So
    only the window blocks dominant for the natural order on the window
    are solved, and each one's dimension is entered at every distinct
    permutation of its weight."""
    n = m.rank
    if not 0 < window <= n:
        raise ValueError(f"window {window} out of range for rank {n}")
    tail = [(mask << window, j + window)
            for mask, j in generating_terms(n - window)]
    dominant = BorelOrder("natural", window).dominant
    solved = lambda w: w.max_index() <= window and dominant(w)
    if mode == "annihilator":
        dims = ((w, len(vecs)) for w, vecs in
                singular_blocks(m, tail, block_filter=solved).items())
    elif mode == "coinvariants":
        dims = coinvariant_blocks(m, tail, block_filter=solved)
    else:
        raise ValueError(f"unknown restriction mode {mode!r}")
    entries: dict = {}
    for w, dim in dims:
        z = w.total()
        for dense in _orbit(w.dense(window)):
            entries[dense, z] = entries.get((dense, z), 0) + dim
    return Character(window, entries)


_OBJECT_MODES = {"L-": "annihilator", "T": "annihilator", "K+": "coinvariants"}


def _build_family_member(obj: str, lam, mu, n: int) -> FiniteWModule:
    if obj == "L-":
        return extract_L_minus(lam, mu, n)
    if obj == "T":
        return tensor_field(gl_simple(lam, mu, n, order="interleaved"), n)
    if obj == "K+":
        return kac_plus(gl_simple(lam, mu, n, order="natural"), n)
    raise ValueError(f"unknown stabilization object {obj!r}")


@dataclass
class StabilizationReport:
    """Window-restricted characters of one family across a rank range."""
    obj: str
    lam: Partition
    mu: Partition
    n_from: int
    n_to: int
    window: int
    mode: str
    stabilized: bool
    characters: list = field(default_factory=list)  # (n, Character)
    first_mismatch: tuple | None = None  # (n, n+1) ranks that disagree

    def to_json(self) -> dict:
        payload = {
            "object": self.obj,
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "n_from": self.n_from,
            "n_to": self.n_to,
            "window": self.window,
            "mode": self.mode,
            "stabilized": self.stabilized,
            "characters": [
                {"n": n, "restricted_dim": ch.total_dim(),
                 "entries": [{"weight": list(w), "zdeg": z, "mult": mult}
                             for (w, z), mult in sorted(ch.entries.items())]}
                for n, ch in self.characters
            ],
        }
        if self.first_mismatch is not None:
            payload["first_mismatch"] = list(self.first_mismatch)
        return payload


def stabilization_sweep(lam, mu, n_from: int, n_to: int, obj: str = "L-",
                        window: int | None = None) -> StabilizationReport:
    """Build one family member per rank and compare restricted characters
    across consecutive ranks.

    The window defaults to n_from - 1 so that the base rank already has a
    nonempty tail to quotient by or to take invariants of; comparing
    against a bare rank (empty tail) would mix two different functors."""
    lam, mu = aspartition(lam), aspartition(mu)
    if n_to <= n_from:
        raise ValueError("need n_to > n_from")
    if obj not in _OBJECT_MODES:
        raise ValueError(f"unknown stabilization object {obj!r}")
    if window is None:
        window = n_from - 1
    if not 0 < window < n_from:
        raise ValueError("window must sit strictly below n_from")
    mode = _OBJECT_MODES[obj]
    chars: list = []
    for n in range(n_from, n_to + 1):
        m = _build_family_member(obj, lam, mu, n)
        chars.append((n, restricted_character(m, window, mode=mode)))
    stabilized = True
    mismatch = None
    for (n1, c1), (n2, c2) in zip(chars, chars[1:]):
        if c1 != c2:
            stabilized = False
            mismatch = (n1, n2)
            break
    return StabilizationReport(obj=obj, lam=lam, mu=mu, n_from=n_from,
                               n_to=n_to, window=window, mode=mode,
                               stabilized=stabilized, characters=chars,
                               first_mismatch=mismatch)
