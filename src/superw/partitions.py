"""Partitions, Littlewood-Richardson coefficients and socle-layer multiplicities.

Littlewood-Richardson coefficients are computed by the tableau rule: the
coefficient indexed by an outer shape nu and inner pair (lam, mu) counts
skew semistandard tableaux of shape nu/lam and content mu whose reverse
reading word (rows left to right... read right to left, top to bottom) is
a lattice word.  The convention used everywhere below is

    lr_coefficient(lam, mu, nu) = coefficient of s_nu in s_lam * s_mu.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .errors import RankTooSmallError
from .weights import INTERLEAVED, NATURAL, Weight


class Partition:
    """Weakly decreasing tuple of positive integers; a part that is not an
    integer (a float, a string) raises TypeError."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(operator.index(p) for p in parts)
        # trailing zeros are tolerated on input and stripped
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        self.parts = ps

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "3,2,1"; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))

    def format(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-based part, zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(1, other.length + 1))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return (self.size, self.parts) < (other.size, other.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        return "(" + self.format() + ")" if self.parts else "()"


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


@lru_cache(maxsize=None)
def _lr_count(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    lam_p, mu_p, nu_p = Partition(lam), Partition(mu), Partition(nu)
    if lam_p.size + mu_p.size != nu_p.size:
        return 0
    if not nu_p.contains(lam_p):
        return 0
    if not mu_p:
        return 1
    nrows = nu_p.length
    # cells processed in reverse reading order: rows top to bottom, each row
    # right to left, so the lattice prefix condition can be checked greedily
    cells = []
    for i in range(nrows):
        lo, hi = lam_p.part(i + 1), nu_p.part(i + 1)
        for j in range(hi - 1, lo - 1, -1):
            cells.append((i, j))
    m = mu_p.length
    remaining = list(mu_p.parts)
    counts = [0] * (m + 1)
    grid: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        above = grid.get((i - 1, j))
        right = grid.get((i, j + 1))
        total = 0
        for v in range(1, m + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            if above is not None and v <= above:
                continue
            if right is not None and v > right:
                continue
            grid[(i, j)] = v
            remaining[v - 1] -= 1
            counts[v] += 1
            total += place(idx + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
            del grid[(i, j)]
        return total

    return place(0)


def lr_coefficient(lam: PartitionLike, mu: PartitionLike, nu: PartitionLike) -> int:
    """Coefficient of s_nu in the Schur expansion of s_lam * s_mu."""
    lam, mu, nu = aspartition(lam), aspartition(mu), aspartition(nu)
    return _lr_count(lam.parts, mu.parts, nu.parts)


def schur_dim(lam: PartitionLike, n: int) -> int:
    """Number of semistandard tableaux of shape lam with entries at most n.

    Evaluated via the hook content product; the tableau count is used as an
    independent oracle in the test suite.
    """
    lam = aspartition(lam)
    if n < 0:
        raise ValueError("negative rank")
    if lam.length > n:
        return 0
    conj = lam.conjugate()
    num = 1
    den = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj.part(j + 1) - i) - 1
    q, r = divmod(num, den)
    assert r == 0, (lam, n)
    return q


def schur_weights(lam: PartitionLike, n: int) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the Schur module: SSYT contents with entries <= n."""
    lam = aspartition(lam)
    out: dict[tuple[int, ...], int] = {}
    if lam.length > n:
        return out
    if not lam:
        out[(0,) * n] = 1
        return out

    rows = lam.parts

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
        if n < need:
            raise RankTooSmallError(
                f"rank {n} too small for interleaved weight of {lam}/{mu}, need {need}"
            )
        coords = [(2 * i - 1, lam.part(i)) for i in range(1, lam.length + 1)]
        coords += [(2 * j, -mu.part(j)) for j in range(1, mu.length + 1)]
        return Weight(coords)
    if order == NATURAL:
        if n < lam.length + mu.length:
            raise RankTooSmallError(
                f"rank {n} too small for natural weight of {lam}/{mu}"
            )
        coords = [(i, lam.part(i)) for i in range(1, lam.length + 1)]
        coords += [(n - j + 1, -mu.part(j)) for j in range(1, mu.length + 1)]
        return Weight(coords)
    raise ValueError(f"unknown order kind {order!r}")


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
