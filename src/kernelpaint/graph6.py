"""graph6 interchange format (short form, n <= 62).

One graph per line.  The first byte encodes n as chr(n + 63); the upper
triangle of the adjacency matrix follows in column order (pairs (0,1), (0,2),
(1,2), (0,3), ...), packed big-endian into 6-bit groups, each group + 63.
"""

from __future__ import annotations

import functools
import os
from typing import Iterable, Union

from .errors import FormatError, SizeLimitError
from .graphs import Graph

__all__ = ["parse_graph6", "encode_graph6", "read_graph6_file", "write_graph6_file"]

_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph."""
    line = text.strip()
    if line.startswith(_HEADER):
        line = line[len(_HEADER):]
    if not line:
        raise FormatError("empty graph6 line")
    for off, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"non-printable graph6 byte {ch!r} at offset {off}")
    first = ord(line[0]) - 63
    if first == 63:
        raise SizeLimitError("long-form graph6 (n > 62) is not supported")
    n = first
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = line[1:]
    if len(body) < need:
        raise FormatError(
            f"truncated bit vector: need {need} bytes after header, got {len(body)}"
        )
    if len(body) > need:
        raise FormatError(f"trailing bytes at offset {1 + need}")
    bits = 0
    for ch in body:
        bits = bits << 6 | (ord(ch) - 63)
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits at end of vector")
    bits >>= pad
    # each set bit of the vector marks one pair, met once: set both rows
    pairs = _pairs_by_bit(n)
    adj = [0] * n
    while bits:
        low = bits & -bits
        i, j = pairs[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        bits ^= low
    g = Graph._from_rows(adj)
    g._graph6 = line  # the length and padding checks leave only encode_graph6(g)
    return g


@functools.lru_cache(maxsize=None)
def _pairs_by_bit(n: int) -> tuple[tuple[int, int], ...]:
    """Index k holds the pair (i, j) that bit k of an n-vertex vector stands
    for, padding removed: the vector lists the pairs in column order from its
    top bit down."""
    return tuple(reversed([(i, j) for j in range(1, n) for i in range(j)]))


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (short form only).

    Column j of the upper triangle is row j of the adjacency below the
    diagonal: pair (i, j) is bit ``i`` of ``adj[j]``, and sits ``i`` places
    after the column's first bit in the vector.  So the columns, each
    shifted past the ones before it, spell the vector with its bits
    reversed, and one reversal of their binary string gives the vector.
    The line is kept on g."""
    if g._graph6 is not None:
        return g._graph6
    n = g.n
    if n > 62:
        raise SizeLimitError("short-form graph6 supports at most 62 vertices")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    reversed_vector = 0
    offset = 0  # the bits of earlier columns
    for j, a in enumerate(g.adj):
        reversed_vector |= (a & ~(-1 << j)) << offset
        offset += j
    vector = int(f"{reversed_vector:0{nbits}b}"[::-1], 2) << 6 * need - nbits
    g._graph6 = chr(n + 63) + "".join([chr((vector >> 6 * k & 63) + 63)
                                       for k in range(need - 1, -1, -1)])
    return g._graph6


def read_graph6_file(path: Union[str, os.PathLike]) -> list[Graph]:
    """Read a graph6 corpus file; '#'-prefixed comment lines and blanks are ignored.

    Bytes are read one to a character, so a byte outside graph6's range
    reaches ``parse_graph6``'s check and is reported with its line."""
    graphs = []
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                graphs.append(parse_graph6(line))
            except (FormatError, SizeLimitError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return graphs


def write_graph6_file(
    path: Union[str, os.PathLike], graphs: Iterable[Graph], comment: str = ""
) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for g in graphs:
            fh.write(encode_graph6(g) + "\n")
