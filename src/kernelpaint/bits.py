"""Vertex-set bitmask helpers shared by every module.

A vertex set over integer labels is an int whose bit v is set when v is in
the set.  These helpers sit on the hot paths of enumeration and the
exhaustive searches, so they stay plain loops over the lowest set bit, and
``bits`` reads the members of a small mask from a table.
"""

from __future__ import annotations

from typing import Iterable

# _MEMBERS[m] is the ascending tuple of the members of m, for every m below
# 2 ** _TABLE_WIDTH: the lowest member, then those of m without it.
_TABLE_WIDTH = 10
_MEMBERS: list[tuple[int, ...]] = [()]
for _m in range(1, 1 << _TABLE_WIDTH):
    _MEMBERS.append(((_m & -_m).bit_length() - 1, *_MEMBERS[_m & _m - 1]))
del _m


def bits(mask: int) -> list[int]:
    """The members of mask in ascending order, as a new list."""
    if not mask >> _TABLE_WIDTH:
        return list(_MEMBERS[mask])
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


def lex_less(a: int, b: int) -> bool:
    """``lex_key(a) < lex_key(b)`` without building either tuple.

    Below the lowest differing bit the tuples agree.  There the mask holding
    the bit continues with it and the other with a higher member, so the
    mask holding the bit is smaller, unless the other has no higher member
    and its tuple ends first.
    """
    low = (a ^ b) & -(a ^ b)
    if a & low:
        return bool(b & -(low << 1))
    return bool(low) and not a & -(low << 1)

