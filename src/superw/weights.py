"""Integer weights with finite support, and the two index orderings.

A weight is a finite integer combination of the coordinate functionals
e_1, e_2, ... dual to the diagonal matrix units.  Weights are immutable
and hashable so they can key weight-space decompositions.

Two total orders on {1..n} are used throughout: the natural order
1 < 2 < ... < n, and the interleaved order that lists odd indices
ascending followed by even indices descending (1, 3, 5, ..., 6, 4, 2).
"""
from __future__ import annotations

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


class Weight:
    """Finitely supported map from positive indices to integers."""

    __slots__ = ("_items",)

    def __init__(self, coords: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for i, c in coords:
            i = int(i)
            c = int(c)
            if i < 1:
                raise ValueError(f"weight index {i} out of range")
            if c:
                acc[i] = acc.get(i, 0) + c
        self._items = tuple(sorted((i, c) for i, c in acc.items() if c))

    @classmethod
    def eps(cls, i: int, c: int = 1) -> "Weight":
        return cls(((i, c),))

    @classmethod
    def zero(cls) -> "Weight":
        return cls()

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def __getitem__(self, i: int) -> int:
        for j, c in self._items:
            if j == i:
                return c
        return 0

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self._items + other._items)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self._items + tuple((i, -c) for i, c in other._items))

    def __neg__(self) -> "Weight":
        return Weight(tuple((i, -c) for i, c in self._items))

    def __rmul__(self, k: int) -> "Weight":
        return Weight(tuple((i, k * c) for i, c in self._items))

    def total(self) -> int:
        """Sum of all coordinates."""
        return sum(c for _, c in self._items)

    def max_index(self) -> int:
        return self._items[-1][0] if self._items else 0

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def dense(self, n: int) -> tuple[int, ...]:
        if self.max_index() > n:
            raise ValueError(f"weight {self} not supported within 1..{n}")
        return tuple(self[i] for i in range(1, n + 1))

    @classmethod
    def from_dense(cls, coords: Iterable[int]) -> "Weight":
        return cls(tuple((i + 1, c) for i, c in enumerate(coords)))

    def to_json(self) -> dict[str, int]:
        return {str(i): c for i, c in self._items}

    def __str__(self) -> str:
        if not self._items:
            return "0"
        out = []
        for i, c in self._items:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = f"e{i}" if mag == 1 else f"{mag}*e{i}"
            out.append(f"{sign}{body}")
        s = " ".join(out)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:
        return f"Weight({self._items!r})"
