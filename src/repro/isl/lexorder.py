"""Lexicographic order helpers for integer tuples.

The paper orders iterations (and statement instances) lexicographically:
``i ≺ j`` holds when the first differing component of ``i`` is smaller than
that of ``j``.  The dependence relation of (eq. 4) is split into a predecessor
part (``j ≺ i``) and a successor part (``i ≺ j``) using exactly this order, and
monotonic chains are defined as lexicographically increasing sequences.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "lex_lt",
    "lex_le",
    "lex_compare",
    "is_lex_positive",
]


def lex_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """Three-way lexicographic comparison of integer tuples (-1, 0, +1)."""
    if len(a) != len(b):
        raise ValueError("lexicographic comparison needs equal-length vectors")
    for x, y in zip(a, b):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


def lex_lt(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when ``a ≺ b``."""
    return lex_compare(a, b) < 0


def lex_le(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when ``a ⪯ b``."""
    return lex_compare(a, b) <= 0


def is_lex_positive(d: Sequence[int]) -> bool:
    """True when the distance vector ``d`` is lexicographically positive."""
    for x in d:
        if x > 0:
            return True
        if x < 0:
            return False
    return False
