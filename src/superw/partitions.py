"""Partitions, Littlewood-Richardson coefficients and socle-layer multiplicities.

A Littlewood-Richardson coefficient comes from the character fold that
decomposes the socle identity's product: at any rank that holds lam, mu
and nu, the coefficient of s_nu in s_lam * s_mu is the multiplicity of
V(nu) in V(lam) (x) S_mu, which ``decompose_character`` reads off the
weights of S_mu shifted by lam (Brauer-Klimyk).  The convention is

    lr_coefficient(lam, mu, nu) = coefficient of s_nu in s_lam * s_mu.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .errors import RankTooSmallError
from .weights import INTERLEAVED, NATURAL, Weight


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; a part that is not an
    integer (a float, a string) raises TypeError.

    It is the tuple of its parts, so it hashes, iterates and tests equal
    as that tuple, but all four comparisons order by size, then parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        ps = tuple(operator.index(p) for p in parts)
        # trailing zeros are tolerated on input and stripped
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        return tuple.__new__(cls, ps)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "3,2,1"; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))

    def format(self) -> str:
        return ",".join(map(str, self))

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """1-based part, zero beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __lt__(self, other: "Partition") -> bool:
        return (self.size, tuple(self)) < (other.size, tuple(other))

    def __le__(self, other: "Partition") -> bool:
        return (self.size, tuple(self)) <= (other.size, tuple(other))

    def __gt__(self, other: "Partition") -> bool:
        return (self.size, tuple(self)) > (other.size, tuple(other))

    def __ge__(self, other: "Partition") -> bool:
        return (self.size, tuple(self)) >= (other.size, tuple(other))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    def __str__(self) -> str:
        return f"({self.format()})"


EMPTY = Partition()

PartitionLike = Union[Partition, Iterable[int], str]


def aspartition(p: PartitionLike) -> Partition:
    if isinstance(p, Partition):
        return p
    if isinstance(p, str):
        return Partition.parse(p)
    return Partition(p)


def partitions_of(k: int) -> Iterator[Partition]:
    """All partitions of k, largest first part first."""
    if k < 0:
        return

    def rec(rem: int, cap: int, acc: list[int]):
        if rem == 0:
            yield Partition(acc)
            return
        for p in range(min(cap, rem), 0, -1):
            acc.append(p)
            yield from rec(rem - p, p, acc)
            acc.pop()

    if k == 0:
        yield EMPTY
        return
    yield from rec(k, k, [])


def schur_weights(lam: PartitionLike, n: int) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the Schur module: SSYT contents with entries <= n."""
    lam = aspartition(lam)
    out: dict[tuple[int, ...], int] = {}
    if lam.length > n:
        return out
    if not lam:
        out[(0,) * n] = 1
        return out

    rows = lam

    def fill(i: int, above: tuple[int, ...], content: list[int]):
        if i == len(rows):
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        width = rows[i]

        def cells(j: int, prev: int, acc: list[int]):
            if j == width:
                fill(i + 1, tuple(acc), content)
                return
            lo = max(prev, (above[j] + 1) if j < len(above) else 1)
            for v in range(lo, n + 1):
                acc.append(v)
                content[v - 1] += 1
                cells(j + 1, v, acc)
                content[v - 1] -= 1
                acc.pop()

        cells(0, 1, [])

    fill(0, (), [0] * n)
    return out


def decompose_character(ch: dict[tuple, int], n: int) -> dict[tuple, int]:
    """Multiplicities of simple characters, dominant weight -> count, by one
    pass over the weights of ch, each folded into the dominant chamber.

    With rho = (n-1, ..., 0), a weight w with w + rho regular contributes
    sign(s) * ch(w) to nu = s(w + rho) - rho, where s sorts w + rho into
    descending order; a singular w + rho contributes nothing.  For a
    W-invariant character this is its decomposition (Weyl's character
    formula).  For ch = {lam + w: mult_X(w)}, the weights of a module X
    shifted by a dominant lam, it is V(lam) (x) X (Brauer-Klimyk).  Keys are
    dense weights of length n.  Raises ValueError when a multiplicity comes
    out negative, which no genuine character of either kind yields."""
    rho = range(n - 1, -1, -1)
    out: dict[tuple, int] = {}
    for w, mult in ch.items():
        v = [x + r for x, r in zip(w, rho)]
        if not mult or len(set(v)) < n:
            continue
        for i in range(n):
            for j in range(i + 1, n):
                if v[i] < v[j]:
                    mult = -mult
        v.sort(reverse=True)
        nu = tuple(x - r for x, r in zip(v, rho))
        out[nu] = out.get(nu, 0) + mult
    if any(m < 0 for m in out.values()):
        raise ValueError("character is not a nonnegative sum of simples")
    return {nu: m for nu, m in out.items() if m}


def shifted_weights(top: tuple, weights: dict[tuple, int]) -> dict[tuple, int]:
    """Weights of X shifted by the dense weight top; folded, V(top) (x) X."""
    return {tuple(a + b for a, b in zip(top, w)): c for w, c in weights.items()}


@lru_cache(maxsize=None)
def _schur_product(lam: Partition, mu: Partition, n: int) -> dict[tuple, int]:
    """s_lam * s_mu as V(lam) (x) S_mu at rank n, keyed by dense weights."""
    top = lam + (0,) * (n - lam.length)
    return decompose_character(shifted_weights(top, schur_weights(mu, n)), n)


def lr_coefficient(lam: PartitionLike, mu: PartitionLike, nu: PartitionLike) -> int:
    """Coefficient of s_nu in s_lam * s_mu, read at rank len(nu) over the
    weights of the shape with fewer boxes (s_lam s_mu = s_mu s_lam)."""
    lam, mu, nu = aspartition(lam), aspartition(mu), aspartition(nu)
    if mu.size > lam.size:
        lam, mu = mu, lam
    # each shape of the product contains lam and mu, in at most len(lam) + len(mu) rows
    if not max(lam.length, mu.length) <= nu.length <= lam.length + mu.length:
        return 0
    return _schur_product(lam, mu, nu.length).get(nu, 0)  # nu is its own dense weight


def socle_layer_mults(
    lam: PartitionLike, mu: PartitionLike, k: int
) -> dict[tuple[Partition, Partition], int]:
    """Predicted layer-k multiplicities: pairs (lam', mu') with the product of
    the two Littlewood-Richardson numbers over a shared partition of k."""
    lam, mu = aspartition(lam), aspartition(mu)
    if k < 0 or k > min(lam.size, mu.size):
        return {}
    out: dict[tuple[Partition, Partition], int] = {}
    for gam in partitions_of(k):
        lhs = []
        for lp in partitions_of(lam.size - k):
            a = lr_coefficient(gam, lp, lam)
            if a:
                lhs.append((lp, a))
        if not lhs:
            continue
        for mp in partitions_of(mu.size - k):
            b = lr_coefficient(gam, mp, mu)
            if not b:
                continue
            for lp, a in lhs:
                key = (lp, mp)
                out[key] = out.get(key, 0) + a * b
    return out


def stable_highest_weight(lam: PartitionLike, mu: PartitionLike, order: str, n: int) -> Weight:
    """Highest weight of the simple gl(n) module attached to a partition pair,
    for either index order.

    For the interleaved order the weight places lam on odd and -mu on even
    indices, so it needs rank max(2 len(lam) - 1, 2 len(mu)); the natural
    order places lam at the start and -mu reversed at the end of 1..n.
    """
    lam, mu = aspartition(lam), aspartition(mu)
    if order == INTERLEAVED:
        need = max(2 * lam.length - 1, 2 * mu.length)
        coords = [(2 * i - 1, lam.part(i)) for i in range(1, lam.length + 1)]
        coords += [(2 * j, -mu.part(j)) for j in range(1, mu.length + 1)]
    elif order == NATURAL:
        need = lam.length + mu.length
        coords = [(i, lam.part(i)) for i in range(1, lam.length + 1)]
        coords += [(n - j + 1, -mu.part(j)) for j in range(1, mu.length + 1)]
    else:
        raise ValueError(f"unknown order kind {order!r}")
    if n < need:
        raise RankTooSmallError(f"shapes {lam},{mu} need rank >= {need}")
    return Weight(coords)


def weight_to_partition_pair(nu: Weight, n: int) -> tuple[Partition, Partition]:
    """Split a dominant (natural order) gl(n) weight into a partition pair:
    nonnegative head becomes lam', negated reversed tail becomes mu'.

    Raises if the dense coordinate vector is not weakly decreasing."""
    dense = nu.dense(n)
    for a, b in zip(dense, dense[1:]):
        if a < b:
            raise ValueError(f"weight {nu} not dominant for the natural order at rank {n}")
    pos = [c for c in dense if c > 0]
    neg = [-c for c in reversed(dense) if c < 0]
    return Partition(pos), Partition(neg)
