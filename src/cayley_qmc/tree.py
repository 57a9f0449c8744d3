"""Coordinate algebra of the semi-infinite Cayley tree of order two.

Vertices are addressed by digit strings over {1, 2}; the root is the empty
string.  Concatenation makes the vertex set a semigroup with the root as
two-sided unit, and translations act by left concatenation.  This module is
the one place that knows the order: a vertex is validated here, once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError


_DIGITS = {1: 1, 2: 2}


@dataclass(frozen=True, init=False)
class TreeCoord:
    """A vertex: its digit path from the root (empty path = root)."""

    digits: tuple[int, ...]

    def __init__(self, digits: Iterable[int] = ()) -> None:
        digits = tuple(digits)
        try:  # one pass: a digit equal to 1 or 2 is stored as that int, anything else is refused
            valid = tuple(map(_DIGITS.__getitem__, digits))
        except (KeyError, TypeError):
            raise DomainError(f"tree digits must be 1 or 2, got {digits}") from None
        object.__setattr__(self, "digits", valid)

    @property
    def level(self) -> int:
        return len(self.digits)

    def __repr__(self) -> str:
        return f"TreeCoord({list(self.digits)})"


ROOT = TreeCoord()


def _derived(digits: tuple[int, ...]) -> TreeCoord:
    """The vertex of int digits derived from valid ones (a product of 1s and 2s, a
    concatenation), which need no second check."""
    x = object.__new__(TreeCoord)
    object.__setattr__(x, "digits", digits)
    return x


def level_vertices(n: int) -> list[TreeCoord]:
    """All 2^n vertices of level n, in lexicographic digit order."""
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    return [_derived(digits) for digits in itertools.product((1, 2), repeat=n)]


def ball_vertices(n: int) -> list[TreeCoord]:
    """The ball of radius n around the root, level by level, lexicographic.

    This is the ball order: the vertex at position x has its successors at
    positions 2x+1 and 2x+2.
    """
    out: list[TreeCoord] = []
    for m in range(n + 1):
        out.extend(level_vertices(m))
    return out


def concat(x: TreeCoord, y: TreeCoord) -> TreeCoord:
    """Semigroup operation: digits of x followed by digits of y."""
    return _derived(x.digits + y.digits)
