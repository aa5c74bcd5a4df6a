"""Structural quantities: Gallai trees, independent cover numbers, low/high split.

A Gallai tree is a connected graph in which every block is a clique or an odd
cycle; a Gallai forest is a disjoint union of Gallai trees.  The maximum
independent cover number mic(G) is the largest number of edges incident to an
independent set.  These two notions are linked by a dichotomy: a connected
graph has mic = |G| - 1 exactly when it is a Gallai tree, and mic >= |G|
otherwise.  This module computes both sides of that dichotomy exactly, plus
the counting quantities used by the degree-bound suites.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bits import bits, mask_of
from .errors import UndefinedStatisticError
from .graphs import (
    Graph,
    _block_masks,
    block_decomposition,
    independence_number,
    max_weight_independent_set,
)

__all__ = [
    "EvenCycleResult",
    "GallaiCheck",
    "LowHighSplit",
    "MicResult",
    "beta_t",
    "find_even_cycle_one_chord",
    "gallai_count_check",
    "is_gallai_forest",
    "is_gallai_tree",
    "low_high_split",
    "mic",
    "random_gallai_forest",
    "random_gallai_tree",
    "sigma",
    "triangle_free_mic_check",
]


# ---------------------------------------------------------------------------
# Gallai tree recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GallaiCheck:
    is_gallai: bool
    offender: Optional[frozenset[int]]  # first block neither a clique nor an odd cycle

    def __bool__(self) -> bool:
        return self.is_gallai


def _gallai_check(g: Graph, blocks: list[int]) -> GallaiCheck:
    """The offender is the first bad block in ``block_decomposition`` order,
    that is, by sorted member list."""
    adj = g.adj
    bad = []
    for b in blocks:
        k = b.bit_count()
        degrees = {(adj[v] & b).bit_count() for v in bits(b)}
        # a block whose vertices all have degree 2 inside it is a cycle
        if degrees != {k - 1} and not (k % 2 and degrees == {2}):
            bad.append(b)
    if not bad:
        return GallaiCheck(True, None)
    return GallaiCheck(False, frozenset(min(map(bits, bad))))


def is_gallai_tree(g: Graph) -> GallaiCheck:
    """True iff g is connected and every block is a clique or odd cycle.

    The block search settles connectivity as well: each component with c
    vertices has blocks whose sizes less one sum to c - 1 (an isolated
    vertex is a block of one), so the blocks of g sum to n - 1 exactly when
    g is connected.
    """
    blocks = _block_masks(g.adj)
    if g.n > 1 and sum(b.bit_count() - 1 for b in blocks) != g.n - 1:
        raise ValueError("is_gallai_tree requires a connected graph; "
                         "use is_gallai_forest for disconnected input")
    return _gallai_check(g, blocks)


def is_gallai_forest(g: Graph) -> GallaiCheck:
    """Disconnected-friendly variant: every component must be a Gallai tree."""
    return _gallai_check(g, _block_masks(g.adj))


# ---------------------------------------------------------------------------
# Even cycle with at most one chord (Rubin's block lemma, one construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvenCycleResult:
    cycle: tuple[int, ...]
    chord: Optional[tuple[int, int]]


def find_even_cycle_one_chord(g: Graph) -> EvenCycleResult:
    """An even cycle of g with at most one chord, and that chord.

    Requires g 2-connected, not complete and not an odd cycle; such a graph
    always contains one (Erdős, Rubin & Taylor 1979).  One construction, in
    O(n m) time, proves it:

    1. g is connected and not complete, so it has an induced path x-z-y.
    2. g - z is connected; a shortest x-y path Q in it is induced.
    3. Cut Q at the neighbours of z.  z sees only the ends of each piece, so
       an even piece closes with z into an induced even cycle, and two
       consecutive odd pieces close with z into an even cycle whose only
       chord joins z to the cut point between them (their outer ends lie two
       or more steps apart on the induced Q, so are not adjacent).
    4. Otherwise z sees only x and y and Q is odd, so C = z + Q is an induced
       odd cycle on at least 5 vertices.  g is not C, so some vertex lies
       off C; g is 2-connected, so C has an ear, a path between two vertices
       of C through vertices off it.  Let R be a shortest ear.
       - If R has one inner vertex r, cut C at the neighbours of r.  The arcs
         sum to |C|, which is odd.  An even arc closes with r into an induced
         even cycle.  Otherwise there are at least three arcs, all odd, and
         two consecutive ones close with r into an even cycle whose one chord
         joins r to their common end, provided their outer ends are not
         adjacent on C, that is, the rest of C is longer than one edge.  Some
         pair qualifies since C is not a triangle: of three odd arcs summing
         to at least 5 one is at least 3 long and the other two qualify, and
         with five or more arcs every pair leaves at least three.
       - If R is longer, an edge from an inner vertex of R to C other than
         R's end edges, or a chord of R, would give a shorter ear.  So R is
         induced and meets C only at its ends a and b.  The two arcs of C
         from a to b sum to |C|, so exactly one closes with R into an even
         cycle, and its only possible chord is the edge ab.
    """
    _check_rubin_preconditions(g)
    x, z, y = next(
        (x, z, y)
        for z in range(g.n)
        for x, y in itertools.combinations(bits(g.adj[z]), 2)
        if not g.has_edge(x, y)
    )
    q = _shortest_path(g, x, 1 << y, g.full_mask() & ~(1 << z))
    found = _close_through(g, z, q)
    if found is not None:
        return found
    cyc = [z, *q]
    cmask = mask_of(cyc)
    ears = (_shortest_path(g, c, cmask & ~(1 << c), g.full_mask() & ~cmask) for c in cyc)
    a, *inner, b = min(filter(None, ears), key=len)
    i = cyc.index(a)
    rot = cyc[i:] + cyc[:i]
    if len(inner) == 1:
        # twice round C, so the pairs of arcs across a are cut out too
        return _close_through(g, inner[0], rot * 2)
    k = rot.index(b)
    if (k + len(inner)) % 2:
        return _even_cycle(g, rot[:k + 1] + inner[::-1])
    return _even_cycle(g, rot[k:] + [a] + inner)


def _check_rubin_preconditions(g: Graph) -> None:
    n = g.n
    if n < 3 or not g.is_connected():
        raise ValueError("graph must be 2-connected on at least 3 vertices")
    bt = block_decomposition(g)
    if len(bt.blocks) != 1:
        raise ValueError("graph must be 2-connected")
    if g.m == n * (n - 1) // 2:
        raise ValueError("graph must not be complete")
    if n % 2 == 1 and g.m == n and all(d == 2 for d in g.degrees):
        raise ValueError("graph must not be an odd cycle")


def _shortest_path(g: Graph, src: int, dst: int, inner: int) -> Optional[list[int]]:
    """A shortest path from src to a vertex of mask dst with at least one
    inner vertex, every inner vertex in mask inner; None if there is none."""
    parent = {src: src}
    level = [src]
    while level:
        nxt = []
        for u in level:
            hit = g.adj[u] & dst if u != src else 0
            if hit:
                path = [(hit & -hit).bit_length() - 1, u]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            for v in bits(g.adj[u] & inner):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        level = nxt
    return None


def _close_through(g: Graph, w: int, walk: Sequence[int]) -> Optional[EvenCycleResult]:
    """Close w with a stretch of walk cut at w's neighbours: the first even
    piece, else the first two consecutive odd pieces whose outer ends are not
    adjacent; None if neither exists."""
    cuts = [i for i, v in enumerate(walk) if g.adj[w] >> v & 1]
    for i, j in zip(cuts, cuts[1:]):
        if (j - i) % 2 == 0:
            return _even_cycle(g, (w, *walk[i:j + 1]))
    for i, k in zip(cuts, cuts[2:]):
        if not g.has_edge(walk[i], walk[k]):
            return _even_cycle(g, (w, *walk[i:k + 1]))
    return None


def _even_cycle(g: Graph, cycle: Sequence[int]) -> EvenCycleResult:
    chords = _chords(g, cycle)
    assert len(cycle) % 2 == 0 and len(chords) <= 1, "Rubin construction invariant"
    return EvenCycleResult(tuple(cycle), chords[0] if chords else None)


def _chords(g: Graph, cycle: Sequence[int]) -> list[tuple[int, int]]:
    k = len(cycle)
    cyc_edges = {
        tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)
    }
    out = []
    for u, v in itertools.combinations(sorted(cycle), 2):
        if g.has_edge(u, v) and (u, v) not in cyc_edges:
            out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# mic and the low/high split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicResult:
    value: int
    witness: frozenset[int]


def mic(g: Graph) -> MicResult:
    """Maximum number of edges incident to an independent set, exactly.

    Exhaustive with pruning; intended for n <= 20.  The witness is the
    lexicographically smallest optimal independent set.
    """
    value, mask = max_weight_independent_set(g, g.degrees)
    if value <= 0:
        return MicResult(0, frozenset())
    return MicResult(value, frozenset(bits(mask)))


@dataclass(frozen=True)
class LowHighSplit:
    high: frozenset[int]      # degree > delta
    low: frozenset[int]       # degree = delta; high and low partition V
    high_edgeless: bool
    gap_is_one: bool          # max degree == min degree + 1


def low_high_split(g: Graph) -> LowHighSplit:
    if g.n < 1:
        raise ValueError("low_high_split requires at least one vertex")
    delta = min(g.degrees)
    top = max(g.degrees)
    low = frozenset(v for v in range(g.n) if g.degrees[v] == delta)
    high = frozenset(v for v in range(g.n) if g.degrees[v] > delta)
    hmask = mask_of(high)
    high_edgeless = all(g.adj[v] & hmask == 0 for v in high)
    return LowHighSplit(high, low, high_edgeless, top == delta + 1)


def sigma(g: Graph) -> Fraction:
    """(delta - 1 + 2/delta)|L| - 2||L|| in exact rationals, L the min-degree part."""
    delta = min(g.degrees, default=0)
    if delta == 0:
        raise UndefinedStatisticError("sigma is undefined when the minimum degree is 0")
    low = [v for v in range(g.n) if g.degrees[v] == delta]
    lmask = mask_of(low)
    low_edges = sum(g.deg_in(v, lmask) for v in low) // 2
    return (Fraction(delta - 1) + Fraction(2, delta)) * len(low) - 2 * low_edges


def beta_t(g: Graph, t: int) -> int:
    """Independence number of the subgraph induced on the degree-t vertices."""
    vt = [v for v in range(g.n) if g.degrees[v] == t]
    return independence_number(g.induced(vt))


# ---------------------------------------------------------------------------
# Counting inequality for Gallai forests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GallaiCountCheck:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def gallai_count_check(forest: Graph, k: int) -> GallaiCountCheck:
    """For a Gallai forest with max degree <= k-1 and no K_k component, check

        (k-1) * beta_{k-1} + Sum_v (k-1 - d(v))
            >= 2(k-3)/(k-2) * |G| - (k-1)(k-4)/(k-2) * c(G)

    in exact rationals.  Preconditions are verified and violations raise.
    One block search serves them all and the component count: each
    component with c vertices has blocks whose sizes less one sum to c - 1.
    """
    if k < 6:
        raise ValueError("counting inequality requires k >= 6")
    adj = forest.adj
    blocks = _block_masks(adj)
    if not _gallai_check(forest, blocks):
        raise ValueError("input is not a Gallai forest")
    if forest.n and max(forest.degrees) > k - 1:
        raise ValueError(f"maximum degree must be at most {k - 1}")
    # With max degree <= k-1 no edge leaves a K_k, so a K_k is a whole
    # component and a block; an odd cycle on k vertices is a block too.
    for b in blocks:
        if b.bit_count() == k and all((adj[v] & b).bit_count() == k - 1 for v in bits(b)):
            raise ValueError(f"forest contains K_{k}")
    components = forest.n - sum(b.bit_count() - 1 for b in blocks)
    lhs = Fraction(
        (k - 1) * beta_t(forest, k - 1)
        + sum(k - 1 - d for d in forest.degrees)
    )
    rhs = Fraction(2 * (k - 3) * forest.n - (k - 1) * (k - 4) * components, k - 2)
    return GallaiCountCheck(lhs >= rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# Random Gallai trees / forests (test-instance generation)
# ---------------------------------------------------------------------------


def random_gallai_tree(block_count: int, max_block_size: int, rng: random.Random) -> Graph:
    """Random connected graph whose blocks are cliques or odd cycles.

    Endblocks glue at uniformly random existing vertices; each block is an odd
    cycle with probability 1/2 (when sizes allow), else a clique.  All
    randomness comes from ``rng``, so a seeded one reproduces the tree.
    """
    if block_count < 1 or max_block_size < 2:
        raise ValueError("need block_count >= 1 and max_block_size >= 2")
    return Graph._from_rows(_gallai_tree_rows(block_count, max_block_size, rng))


def _gallai_tree_rows(block_count: int, max_block_size: int, rng: random.Random) -> list[int]:
    """The adjacency rows of :func:`random_gallai_tree`'s tree, from the same
    draws of ``rng`` in the same order."""
    rows = [0]  # vertex 0 exists, blocks attach to existing vertices
    odd_sizes = range(3, max_block_size + 1, 2)
    for _ in range(block_count):
        n = len(rows)
        attach = rng.randrange(n)
        if odd_sizes and rng.random() < 0.5:
            size = rng.choice(odd_sizes)
            ring = [attach, *range(n, n + size - 1)]
            rows += [0] * (size - 1)
            for i, v in enumerate(ring):
                rows[v] |= 1 << ring[i - 1] | 1 << ring[(i + 1) % size]
        else:
            size = rng.randint(2, max_block_size)
            block = ((1 << size - 1) - 1) << n | 1 << attach
            rows += [0] * (size - 1)
            for v in bits(block):
                rows[v] |= block ^ 1 << v
    return rows


def random_gallai_forest(
    tree_count: int,
    block_count: int,
    max_block_size: int,
    rng: random.Random,
    max_degree: Optional[int] = None,
) -> Graph:
    """Disjoint union of ``tree_count`` random Gallai trees, each with 1 to
    ``block_count`` blocks, optionally degree-capped by rejection.  All
    randomness comes from ``rng``, so a seeded one reproduces the forest.

    Every tree has an edge, so a cap needs ``max_degree >= 1``; with it a
    single edge passes, and the rejection loop ends with probability 1.
    """
    if tree_count < 1:
        raise ValueError(f"tree_count must be at least 1, not {tree_count}")
    if block_count < 1:
        raise ValueError(f"block_count must be at least 1, not {block_count}")
    if max_block_size < 2:
        raise ValueError(f"max_block_size must be at least 2, not {max_block_size}")
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max_degree must be None or at least 1, not {max_degree}")
    while True:
        rows: list[int] = []
        for _ in range(tree_count):
            tree = _gallai_tree_rows(1 + rng.randrange(block_count), max_block_size, rng)
            offset = len(rows)
            rows += [row << offset for row in tree]
        if max_degree is None or max(map(int.bit_count, rows)) <= max_degree:
            return Graph._from_rows(rows)


# ---------------------------------------------------------------------------
# Triangle-free lower bound on mic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicBoundCheck:
    holds: bool
    mic_value: int
    bound: float  # quarter-sum of base-2 logs of the degrees

MIC_BOUND_TOLERANCE = 1e-9


def triangle_free_mic_check(g: Graph) -> MicBoundCheck:
    """Check mic(G) >= (1/4) Sum_v lg d(v) on a triangle-free graph.

    The left side is an exact integer; only the logarithmic side is floating
    point, compared with tolerance 1e-9 in favor of "holds".
    """
    if g.has_triangle():
        raise ValueError("graph must be triangle-free")
    if g.n == 0 or min(g.degrees) < 1:
        raise ValueError("every vertex must have degree at least 1")
    bound = sum(math.log2(d) for d in g.degrees) / 4.0
    value = mic(g).value
    return MicBoundCheck(value >= bound - MIC_BOUND_TOLERANCE, value, bound)
