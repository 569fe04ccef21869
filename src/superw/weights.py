"""Integer weights with finite support, and the two index orderings.

A weight is a finite integer combination of the coordinate functionals
e_1, e_2, ... dual to the diagonal matrix units.  Weights are immutable
and hashable so they can key weight-space decompositions.

Two total orders on {1..n} are used throughout: the natural order
1 < 2 < ... < n, and the interleaved order that lists odd indices
ascending followed by even indices descending (1, 3, 5, ..., 6, 4, 2).
"""
from __future__ import annotations

import operator
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


def _trim(dense) -> tuple[int, ...]:
    """The coordinates as a tuple, trailing zeros dropped."""
    k = len(dense)
    while k and not dense[k - 1]:
        k -= 1
    return tuple(dense[:k])


class Weight:
    """Finitely supported map from positive indices to integers.

    Held as the dense tuple of coordinates 1..k with trailing zeros
    dropped, so a weight compares equal across ranks, plus its hash:
    arithmetic is plain tuple arithmetic, with no sort and no dict."""

    __slots__ = ("_coords", "_hash")

    def __init__(self, coords: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for i, c in coords:
            i = int(i)
            c = int(c)
            if i < 1:
                raise ValueError(f"weight index {i} out of range")
            if c:
                acc[i] = acc.get(i, 0) + c
        dense = [0] * max(acc, default=0)
        for i, c in acc.items():
            dense[i - 1] = c
        self._coords = t = _trim(dense)
        self._hash = hash(t)

    @classmethod
    def _dense(cls, dense) -> "Weight":
        """The weight with coordinates 1..len(dense)."""
        w = object.__new__(cls)
        w._coords = t = _trim(dense)
        w._hash = hash(t)
        return w

    @classmethod
    def eps(cls, i: int, c: int = 1) -> "Weight":
        return cls(((i, c),))

    @classmethod
    def zero(cls) -> "Weight":
        return cls()

    @property
    def coords(self) -> tuple[int, ...]:
        """The coordinates 1..max_index(), the last one nonzero."""
        return self._coords

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, c) for i, c in enumerate(self._coords, 1) if c)

    def __getitem__(self, i: int) -> int:
        return self._coords[i - 1] if 0 < i <= len(self._coords) else 0

    def __add__(self, other: "Weight") -> "Weight":
        a, b = self._coords, other._coords
        if len(a) < len(b):
            a, b = b, a
        return Weight._dense(tuple(map(operator.add, a, b)) + a[len(b):])

    def __sub__(self, other: "Weight") -> "Weight":
        return self + -other

    def __neg__(self) -> "Weight":
        return Weight._dense(tuple(-c for c in self._coords))

    def __rmul__(self, k: int) -> "Weight":
        return Weight._dense(tuple(int(k * c) for c in self._coords))

    def total(self) -> int:
        """Sum of all coordinates."""
        return sum(self._coords)

    def max_index(self) -> int:
        return len(self._coords)

    def __bool__(self) -> bool:
        return bool(self._coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Weight) and self._hash == other._hash
                and self._coords == other._coords)

    def __hash__(self) -> int:
        return self._hash

    def dense(self, n: int) -> tuple[int, ...]:
        if len(self._coords) > n:
            raise ValueError(f"weight {self} not supported within 1..{n}")
        return self._coords + (0,) * (n - len(self._coords))

    @classmethod
    def from_dense(cls, coords: Iterable[int]) -> "Weight":
        return cls._dense([int(c) for c in coords])

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
