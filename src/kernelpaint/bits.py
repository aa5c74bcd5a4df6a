"""Vertex-set bitmask helpers shared by every module.

A vertex set over integer labels is an int whose bit v is set when v is in
the set.  These helpers sit on the hot paths of enumeration and the
exhaustive searches, so they stay plain loops over the lowest set bit.
"""

from __future__ import annotations

from typing import Iterable


def bits(mask: int) -> list[int]:
    """The members of mask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask of a collection of vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lex_key(mask: int) -> tuple:
    """Sort key ordering vertex sets by their ascending member tuples."""
    return tuple(bits(mask))


def submasks(mask: int) -> list[int]:
    """Every subset of mask in descending numeric order, full set first."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return out
