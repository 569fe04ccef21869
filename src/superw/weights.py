"""Integer weights with finite support, and the two index orderings.

A weight is a finite integer combination of the coordinate functionals
e_1, e_2, ... dual to the diagonal matrix units, a weight of gl(infinity).
It is the tuple of its coordinates up to the last nonzero one, so it is
immutable, and it keys weight-space decompositions with the tuple's own
hash and equality.

Two total orders on {1..n} are used throughout: the natural order
1 < 2 < ... < n, and the interleaved order that lists odd indices
ascending followed by even indices descending (1, 3, 5, ..., 6, 4, 2).
"""
from __future__ import annotations

import operator
from itertools import islice
from typing import Iterable

NATURAL = "natural"
INTERLEAVED = "interleaved"
ORDER_KINDS = (NATURAL, INTERLEAVED)


def order_sequence(kind: str, n: int) -> list[int]:
    """Indices 1..n listed in the given order."""
    if n < 0:
        raise ValueError(f"negative rank {n}")
    if kind == NATURAL:
        return list(range(1, n + 1))
    if kind == INTERLEAVED:
        odds = list(range(1, n + 1, 2))
        evens = list(range(n if n % 2 == 0 else n - 1, 0, -2))
        return odds + evens
    raise ValueError(f"unknown order kind {kind!r}")


class Weight(tuple):
    """Finitely supported map from positive indices to integers.

    The tuple of coordinates 1..k with trailing zeros dropped, so a
    weight compares equal across ranks and hashes, compares and iterates
    as that tuple.  Indexing is 1-based, with 0 outside the support, and
    ``+``, ``-`` and ``*`` are coordinatewise arithmetic, not tuple
    concatenation and repetition."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for i, c in coords:
            i = operator.index(i)
            c = operator.index(c)
            if i < 1:
                raise ValueError(f"weight index {i} out of range")
            if c:
                acc[i] = acc.get(i, 0) + c
        dense = [0] * max(acc, default=0)
        for i, c in acc.items():
            dense[i - 1] = c
        return cls._dense(dense)

    @classmethod
    def _dense(cls, dense) -> "Weight":
        """The weight with coordinates 1..len(dense), trailing zeros dropped."""
        k = len(dense)
        while k and not dense[k - 1]:
            k -= 1
        return tuple.__new__(cls, dense[:k])

    def __getnewargs__(self):
        # copy and pickle rebuild a weight from its pairs, not its tuple
        return (self.items(),)

    @classmethod
    def eps(cls, i: int, c: int = 1) -> "Weight":
        return cls(((i, c),))

    @classmethod
    def zero(cls) -> "Weight":
        return cls()

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, c) for i, c in enumerate(self, 1) if c)

    def __getitem__(self, i: int) -> int:
        return tuple.__getitem__(self, i - 1) if 0 < i <= len(self) else 0

    def __add__(self, other: "Weight") -> "Weight":
        a, b = self, other
        if len(a) < len(b):
            a, b = b, a
        return Weight._dense((*map(operator.add, a, b), *islice(a, len(b), None)))

    def __sub__(self, other: "Weight") -> "Weight":
        return self + -other

    def __neg__(self) -> "Weight":
        return Weight._dense(tuple(-c for c in self))

    def __rmul__(self, k: int) -> "Weight":
        k = operator.index(k)
        return Weight._dense(tuple(k * c for c in self))

    __mul__ = __rmul__

    def total(self) -> int:
        """Sum of all coordinates."""
        return sum(self)

    def max_index(self) -> int:
        return len(self)

    def dense(self, n: int) -> tuple[int, ...]:
        if len(self) > n:
            raise ValueError(f"weight {self} not supported within 1..{n}")
        return tuple(self) + (0,) * (n - len(self))

    @classmethod
    def from_dense(cls, coords: Iterable[int]) -> "Weight":
        return cls._dense([operator.index(c) for c in coords])

    def to_json(self) -> dict[str, int]:
        return {str(i): c for i, c in self.items()}

    def __str__(self) -> str:
        items = self.items()
        if not items:
            return "0"
        out = []
        for i, c in items:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = f"e{i}" if mag == 1 else f"{mag}*e{i}"
            out.append(f"{sign}{body}")
        s = " ".join(out)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:
        return f"Weight({self.items()!r})"
