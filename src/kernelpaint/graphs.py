"""Core graph type, generators, elementary statistics and small-graph enumeration.

Vertices are dense integers ``0..n-1``.  A :class:`Graph` is immutable after
construction; every operation in this module is a pure function, so graphs can
be shared freely across threads.

Enumeration is McKay's canonical augmentation: each class on n vertices is
kept once, as the child of a class on n - 1 vertices whose new vertex is a
canonical deletion, with no canonical key computed for the child and no
deduplication.  Most children are decided by degrees and neighbor degrees
alone, or kept because every vertex sharing the new vertex's invariant is
its twin; a child is colored only past those tests, and searched
(``_canonical_search``, with that coloring) only when its new vertex shares
its invariant and refined color with a vertex that is not its twin.  Each
child's connectivity is read from its parent's components, found once per
parent, so a level's connected classes are kept beside it and no class is
tested again.

Adjacency rows stored, edge set derived on read: a graph keeps one integer
bitmask per vertex, and ``Graph.edges`` rebuilds the set of sorted pairs from
the rows each time it is read.  The rows are what makes the exhaustive
searches (cliques, independent sets, isomorph rejection) fast enough at desk
scale, and storing nothing else keeps an enumerated level small: a class on
7 vertices takes under 300 bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bits import bits, lex_less
from .errors import ConstructionError, SizeLimitError, UndefinedStatisticError

__all__ = [
    "Graph",
    "BlockTree",
    "block_decomposition",
    "canonical_key",
    "cut_size",
    "enumerate_graphs",
    "enumerate_triangle_free",
    "make_named",
    "ore_degree",
    "to_dot",
]

ENUMERATION_CAP = 8
TRIANGLE_FREE_CAP = 10


class Graph:
    """Simple undirected graph on vertex set ``{0, ..., n-1}``.

    ``edges`` may be any iterable of pairs; self-loops are rejected and
    duplicate/reversed pairs collapse.  Adjacency rows stored, edge set
    derived on read: ``adj[v]`` has bit u set when uv is an edge, and the
    ``edges`` property rebuilds the frozenset of pairs (u, v), u < v, from
    the rows.  Treat instances as immutable.
    """

    __slots__ = ("n", "adj", "degrees", "_hash", "_graph6")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set_rows(tuple(adj))

    @classmethod
    def _from_rows(cls, adj: Iterable[int]) -> "Graph":
        """The graph with valid adjacency rows adj, symmetric and loop-free,
        taken without ``__init__``'s checks of each pair."""
        g = cls.__new__(cls)
        g._set_rows(tuple(adj))
        return g

    def _set_rows(self, adj: tuple[int, ...]) -> None:
        """Set every slot from valid adjacency rows: symmetric, no loops."""
        self.n = len(adj)
        self.adj = adj
        self.degrees = tuple(map(int.bit_count, adj))
        self._hash = hash((self.n, adj))
        self._graph6 = None  # its graph6 line, kept once encoded or parsed

    # -- basic accessors -------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u < v, built from the rows."""
        return frozenset((u, v) for u, a in enumerate(self.adj)
                         for v in bits(a >> u + 1 << u + 1))

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return bits(self.adj[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs --------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph relabeled onto 0..k-1 in sorted(vertices) order.

        A vertex outside 0..n-1 raises ValueError."""
        vs = sorted(set(vertices))
        keep = _as_mask(self, vs)
        bit = {v: 1 << i for i, v in enumerate(vs)}
        rows = []
        for v in vs:
            row = 0
            for w in bits(self.adj[v] & keep):
                row |= bit[w]
            rows.append(row)
        return Graph._from_rows(rows)

    def deg_in(self, v: int, mask: int) -> int:
        """Degree of v inside the vertex subset given as a bitmask."""
        return (self.adj[v] & mask).bit_count()

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def component_masks(self, within: Optional[int] = None) -> list[int]:
        """Bitmasks of the connected components (of the induced subset if given)."""
        todo = self.full_mask() if within is None else within
        comps = []
        while todo:
            start = todo & -todo
            comp = start
            frontier = start
            while frontier:
                nxt = 0
                v = frontier
                while v:
                    low = v & -v
                    nxt |= self.adj[low.bit_length() - 1]
                    v ^= low
                frontier = nxt & todo & ~comp
                comp |= frontier
            comps.append(comp)
            todo &= ~comp
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def has_triangle(self) -> bool:
        adj = self.adj
        for u, a in enumerate(adj):
            later = a >> u + 1 << u + 1  # each edge once, from its smaller end
            while later:
                low = later & -later
                if a & adj[low.bit_length() - 1]:
                    return True
                later ^= low
        return False


# ---------------------------------------------------------------------------
# Cut sizes and statistics
# ---------------------------------------------------------------------------


def cut_size(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    """Number of (v, w) incidences with v in A, w in B and vw an edge.

    Counts Sum_{v in A} |N(v) & B|; edges inside A & B are counted twice, so
    cut_size(g, V, V) == 2 * g.m and cut_size is symmetric in A, B.  The full
    decomposition is ||A,B|| = ||A-B, B-A|| + 2||A&B|| + ||A&B, A^B|| (the
    last term is often dropped because the usual instantiations have A, B
    disjoint or equal, where it vanishes).
    """
    amask = _as_mask(g, a)
    bmask = _as_mask(g, b)
    total = 0
    v = amask
    while v:
        low = v & -v
        total += (g.adj[low.bit_length() - 1] & bmask).bit_count()
        v ^= low
    return total


def _as_mask(g: Graph, vertices: Iterable[int]) -> int:
    if isinstance(vertices, int):
        if vertices < 0 or vertices >> g.n:
            raise ValueError("vertex bitmask out of range")
        return vertices
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def ore_degree(g: Graph) -> int:
    """Largest endpoint degree sum over the edges of g."""
    deg = g.degrees
    top = 2 * max(deg, default=0)
    if not top:
        raise UndefinedStatisticError("Ore-degree is undefined on an edgeless graph")
    best = 0
    for u, a in enumerate(g.adj):
        du = deg[u]
        later = a >> u + 1 << u + 1  # each edge once, from its smaller end
        while later:
            low = later & -later
            s = du + deg[low.bit_length() - 1]
            if s > best:
                if s == top:  # no edge can beat twice the maximum degree
                    return s
                best = s
            later ^= low
    return best


def max_weight_independent_set(g_or_n, weights: Sequence[int],
                               adj: Optional[Sequence[int]] = None) -> tuple[int, int]:
    """Maximum total weight of an independent set, with its witness mask.

    Takes a graph, or a vertex count and its adjacency rows.  Among
    maximum-weight sets the witness is the one whose sorted vertex tuple is
    lexicographically smallest, which keeps downstream expectations
    deterministic.  Weights must be nonnegative integers.

    Exhaustive branch and bound on the lowest available vertex v, taking v
    first: one loop runs down the branch that takes, and the branches that
    leave v out wait on a stack.  The bound on a subtree is the weight taken
    plus the weight still available, carried down the search; a branch that
    leaves v out is stacked only when its bound can still reach the best.
    Every set below a node shares the node's choices, all of them below the
    available vertices, so leaves come in the order of their tuples except
    that a set comes after its extensions.  When every weight is positive
    a maximum-weight set has no maximum-weight extension, so the first best
    leaf is the witness and a subtree that can only tie the best is cut.
    With zero weights, ties are kept and compared.

    v is taken without branching when it has positive weight and at most
    one available neighbor u, no heavier than v.  A best set S without v
    would hold u (else S + v weighs more), and S - u + v weighs as much
    and has the smaller tuple.
    """
    if adj is None:
        g_or_n, adj = g_or_n.n, g_or_n.adj
    unit = weights.count(1) == len(weights)
    tie = 0 if 0 in weights else 1  # a leaf must beat the best by this
    best_w = -1
    best_set = 0
    bar = 0  # best_w + tie: the weight a subtree must still reach
    # top: the weight taken so far and still available, a subtree's bound
    stack = [((1 << g_or_n) - 1, sum(weights), 0, 0)]
    while stack:
        avail, top, cur_w, cur_set = stack.pop()
        while avail:
            if top < bar:
                break
            bit = avail & -avail
            v = bit.bit_length() - 1
            wv = weights[v]
            nb = avail & adj[v]
            if ((nb & nb - 1 or not wv or nb and weights[nb.bit_length() - 1] > wv)
                    and top - wv >= bar):
                stack.append((avail ^ bit, top - wv, cur_w, cur_set))
            avail ^= nb | bit
            cur_w += wv
            cur_set |= bit
            if unit:
                top -= nb.bit_count()
            else:
                while nb:
                    low = nb & -nb
                    top -= weights[low.bit_length() - 1]
                    nb ^= low
        else:
            if cur_w > best_w or cur_w == best_w and lex_less(cur_set, best_set):
                best_w, best_set = cur_w, cur_set
                bar = best_w + tie
    return best_w, best_set


def independence_number(g: Graph) -> int:
    return max_weight_independent_set(g, [1] * g.n)[0]


def clique_number(g: Graph) -> int:
    full = g.full_mask()
    rows = [full & ~(a | 1 << v) for v, a in enumerate(g.adj)]
    return max_weight_independent_set(g.n, [1] * g.n, rows)[0]


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def make_named(name: str, params: Sequence[int] = ()) -> Graph:
    """Construct a graph from a named family.

    Canonical labelings: cycles and paths run 0,1,...; complete_bipartite(a,b)
    puts the a-side first; petersen has outer cycle 0-4, inner pentagram 5-9,
    spokes i--i+5; K4_minus_e omits the pair {2,3}; O_n(k) has x=0, y=1, the
    rest of K_k - xy on 2..k-1, and the K_{k-1} on k..2k-2 with its first
    floor((k-1)/2) vertices joined to x and the rest to y; moser_spindle has
    hub 0, diamonds {0,1,2,3} and {0,4,5,6} with apexes 3 and 6 joined.
    """
    p = list(params)
    try:
        if name == "complete":
            (k,) = p
            _require(k >= 1, "complete requires n >= 1")
            return Graph(k, itertools.combinations(range(k), 2))
        if name == "cycle":
            (k,) = p
            _require(k >= 3, "cycle requires n >= 3")
            return Graph(k, [(i, (i + 1) % k) for i in range(k)])
        if name == "path":
            (k,) = p
            _require(k >= 1, "path requires n >= 1")
            return Graph(k, [(i, i + 1) for i in range(k - 1)])
        if name == "complete_bipartite":
            a, b = p
            _require(a >= 1 and b >= 1, "complete_bipartite requires positive parts")
            return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        if name == "petersen":
            _require(not p, "petersen takes no parameters")
            edges = [(i, (i + 1) % 5) for i in range(5)]
            edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            edges += [(i, i + 5) for i in range(5)]
            return Graph(10, edges)
        if name == "moser_spindle":
            _require(not p, "moser_spindle takes no parameters")
            edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
            edges += [(0, 4), (0, 5), (4, 5), (4, 6), (5, 6)]
            edges += [(3, 6)]
            return Graph(7, edges)
        if name == "K4_minus_e":
            _require(not p, "K4_minus_e takes no parameters")
            return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        if name == "O_n":
            (k,) = p
            _require(k >= 3, f"O_n requires n >= 3, got {k}")
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(k), 2)
                if (u, v) != (0, 1)
            ]
            edges += list(itertools.combinations(range(k, 2 * k - 1), 2))
            half = (k - 1) // 2
            edges += [(0, k + i) for i in range(half)]
            edges += [(1, k + i) for i in range(half, k - 1)]
            return Graph(2 * k - 1, edges)
    except ConstructionError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConstructionError(f"bad parameters {p!r} for family {name!r}: {exc}")
    raise ConstructionError(f"unknown graph family {name!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConstructionError(msg)


# ---------------------------------------------------------------------------
# Block decomposition (biconnected components)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockTree:
    """Blocks (maximal 2-connected pieces, bridges, isolated vertices) of a graph.

    Every edge lies in exactly one block; two blocks share at most one vertex
    and such a shared vertex is a cutvertex.
    """

    blocks: tuple[frozenset[int], ...]
    cutvertices: frozenset[int]


def block_decomposition(g: Graph) -> BlockTree:
    """Hopcroft-Tarjan biconnected components; isolated vertices become singleton blocks.

    The blocks are those of ``_block_masks``, sorted by their sorted member
    lists; the cutvertices are the vertices in two or more blocks.
    """
    masks = _block_masks(g.adj)
    seen = twice = 0
    for b in masks:
        twice |= seen & b
        seen |= b
    return BlockTree(blocks=tuple(frozenset(b) for b in sorted(map(bits, masks))),
                     cutvertices=frozenset(bits(twice)))


def _block_masks(adj: Sequence[int]) -> list[int]:
    """The blocks of the graph with adjacency rows adj, as vertex masks.

    One iterative Hopcroft-Tarjan search, with Tarjan's low numbers kept as
    masks.  A depth-first search of an undirected graph leaves no cross
    edges, so the neighbours of the subtree of a child u of p lie in that
    subtree, at p, or on the path above p.  reach[u] collects them, and u's
    subtree reaches above p exactly when reach[u] meets the path less p;
    when it does not, p separates it, and its block is p with every vertex
    stacked from u up: ``stacked ^ below[u]``.
    """
    blocks = []
    reach = list(adj)  # reach[v]: the neighbours of v's subtree so far
    below = [0] * len(adj)  # below[v]: the stacked vertices when v was reached
    seen = 0
    for root, row in enumerate(adj):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        if not row:
            blocks.append(1 << root)
            continue
        path = [root]
        on_path = stacked = 1 << root
        while path:
            u = path[-1]
            fresh = adj[u] & ~seen
            if fresh:
                bit = fresh & -fresh
                w = bit.bit_length() - 1
                below[w] = stacked
                seen |= bit
                on_path |= bit
                stacked |= bit
                path.append(w)
                continue
            path.pop()
            on_path ^= 1 << u
            if path:
                p = path[-1]
                if reach[u] & on_path & ~(1 << p):
                    reach[p] |= reach[u]
                else:
                    blocks.append(stacked ^ below[u] | 1 << p)
                    stacked = below[u]
    return blocks


# ---------------------------------------------------------------------------
# Canonical forms and enumeration
# ---------------------------------------------------------------------------


def _refine(nbrs: Sequence[Sequence[int]], twin_classes: int) -> list[int]:
    """Stable vertex coloring of the graph with neighbor lists nbrs:
    iterated (color, sorted neighbor colors) keys, ranked.

    The first round from the one-cell coloring ranks vertices by degree, so
    the iteration starts there.  It stops at ``twin_classes`` cells, the
    number of classes of twins (n bounds it), without the round that would
    find the coloring stable.  Twins get one key in every round, so each
    cell is a union of twin classes, and once there are as many cells as
    classes each cell is one class of pairwise twins.  That coloring is
    stable: twins u and v have the same neighbors outside {u, v}, so the
    members of a cell count the same neighbors in every cell.

    Refinement only splits cells, so vertices of one color share a degree,
    and their sorted neighbor-color tuples share a length.  Tuples of one
    length compare like their count vectors read from color 0 up, a larger
    count sorting first.  So each key is an int: with k cells and
    ``B = 2 ** n.bit_length() > n``, the key of v is ``color(v) * B**k`` less
    ``B**(k - 1 - color(u))`` for each neighbor u.  The subtracted sum spells
    v's counts as k base-B digits, cell 0 first, so it stays below ``B**k``
    and the keys rank the vertices exactly as the tuples do.
    """
    n = len(nbrs)
    degrees = [len(nv) for nv in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    ncells = len(rank)
    w = n.bit_length()
    while ncells < twin_classes:
        shift = w * ncells
        weight = [1 << shift - w * (c + 1) for c in colors]
        keys = [(c << shift) - sum(map(weight.__getitem__, nv))
                for c, nv in zip(colors, nbrs)]
        table = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [table[k] for k in keys]
        if len(table) == ncells:
            break
        ncells = len(table)
    return colors


def canonical_key(g_or_n, adj: Optional[Sequence[int]] = None) -> tuple:
    """Isomorphism-invariant canonical key for a graph.

    The key is the lexicographically smallest tuple of adjacency row bitmasks
    over all vertex orderings consistent with the refined color partition
    (colors ordered by their invariant refinement keys), found by the branch
    and bound of ``_canonical_search``.
    """
    if adj is None:
        g_or_n, adj = g_or_n.n, g_or_n.adj
    return _canonical_search(g_or_n, adj)[0]


def _orbit_closure(mask: int, generators: Sequence[Sequence[int]]) -> int:
    """The union of the orbits that meet mask, under the group generated."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        for p in generators:
            image = 1 << p[v]
            if not mask & image:
                mask |= image
                todo |= image
    return mask


def _coloring(adj: Sequence[int]) -> tuple[list[list[int]], int, list[int]]:
    """The neighbor lists of the graph with adjacency rows adj, its number
    of twin classes, and its refined coloring.

    Twins share their open neighborhood when not adjacent and their closed
    one when adjacent.  No vertex has twins of both kinds (an open twin of v
    would be adjacent to v's closed twin, hence to v), so the twin classes
    number n less the merges of each kind, and twinship is an equivalence.
    """
    nbrs = [bits(a) for a in adj]
    closed = {a | 1 << v for v, a in enumerate(adj)}
    twin_classes = len(set(adj)) + len(closed) - len(adj)
    return nbrs, twin_classes, _refine(nbrs, twin_classes)


def _canonical_search(n: int, adj: Sequence[int], coloring: Optional[tuple] = None
                      ) -> tuple[tuple, list[tuple[int, ...]], list[int]]:
    """The canonical key of the graph with adjacency rows adj, a list of
    automorphisms (``p[v]`` is the image of v) that generates its group, and
    an ordering of the vertices whose rows are the key.  coloring is
    ``_coloring(adj)`` when the caller has it already.

    The key is the least tuple of row strings over the orderings that list
    the refined colors in order: row p of an ordering has bit ``n - 1 - i``
    set when positions i < p are adjacent.  u and v are twins when
    ``adj[u] & ~(1 << v) == adj[v] & ~(1 << u)``; then the transposition
    (u v) is an automorphism, and it keeps every color.

    Twin-cell shortcut: when every cell of the refined coloring is a class
    of pairwise twins, there is no search.  A discrete coloring is the case
    where every cell is a single vertex.  Swaps of twins are automorphisms
    that keep colors, and they generate every permutation of a cell, so all
    the orderings give the same rows: the key is the rows of the ordering
    that lists each color's vertices by label.  Automorphisms keep colors,
    so the group is exactly the product of the cells' symmetric groups,
    generated by the swaps of consecutive members of each cell.

    Otherwise a branch and bound on the rows.  At each node the search skips
    two kinds of candidate:

    - a twin of one it already tried there: their transposition fixes the
      placed prefix.  Each skipped pair is reported as that transposition.
    - a candidate in the orbit of the tried ones under the automorphisms
      found so far that fix the placed prefix pointwise (orbit pruning).

    Both skips are sound for the same reason.  An automorphism h that fixes
    the prefix and maps a tried u to v keeps colors and adjacency, so it maps
    each ordering under u to one under v with the same rows: the subtree
    under v is the image of a searched subtree, and its best rows are already
    known.  Every leaf the search reaches has the rows of the best ordering
    so far; when a leaf repeats the rows of the first leaf since ``best``
    last fell, the two orderings give the same adjacency matrix, so the map
    from one to the other is an automorphism, whatever the final best turns
    out to be.  The ordering returned is that first leaf.

    Together these generate the whole group.  Leaves with the final rows are
    never cut by the bound, and every automorphism g maps the first of them,
    L, to another one.  If g(L) was skipped, some h generated by what was
    found maps it into the searched subtree of a tried candidate, one level
    deeper than before; repeating reaches a visited leaf L' with
    g(L) = h1...hk(L'), and the map from L to L' was reported.
    """
    if n == 0:
        return (0,), [], []
    nbrs, twin_classes, colors = coloring or _coloring(adj)
    if max(colors) + 1 == twin_classes:  # the twin-cell shortcut
        order = sorted(range(n), key=colors.__getitem__)
        column = [0] * n  # the bit of each vertex's position in a row
        for p, v in enumerate(order):
            column[v] = 1 << n - 1 - p
        rows = [sum(map(column.__getitem__, nbrs[v])) >> n - p << n - p
                for p, v in enumerate(order)]
        generators = []
        for u, v in zip(order, order[1:]):
            if colors[u] == colors[v]:
                perm = list(range(n))
                perm[u], perm[v] = v, u
                generators.append(tuple(perm))
        return (n, *rows), generators, order
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    # Twins have one color, so only pairs inside a cell are tested.
    twins = [0] * n
    for cell in cells:
        for u, v in itertools.combinations(cell, 2):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    cell_of_pos = [cell for cell in cells for _ in cell]

    sentinel = 1 << (n + 1)
    best = [sentinel] * n
    placed: list[int] = []
    acc = [0] * n  # each vertex's row against the placed prefix
    first: Optional[list[int]] = None  # first leaf since best last fell
    automorphisms: dict[tuple[int, ...], int] = {}  # each with its fixed points

    def found(perm: tuple[int, ...]) -> None:
        if perm not in automorphisms:
            automorphisms[perm] = sum(1 << v for v in range(n) if perm[v] == v)

    def dfs(pos: int, used: int) -> None:
        nonlocal first
        if pos == n:
            if first is None:
                first = placed[:]
            else:
                perm = [0] * n
                for u, v in zip(first, placed):
                    perm[u] = v
                found(tuple(perm))
            return
        scored = sorted((acc[v], v) for v in cell_of_pos[pos] if not used >> v & 1)
        bit = 1 << (n - 1 - pos)
        tried = 0
        for r, v in scored:
            if r > best[pos]:
                break
            twin = twins[v] & tried
            if twin:
                u = (twin & -twin).bit_length() - 1
                perm = list(range(n))
                perm[u], perm[v] = v, u
                found(tuple(perm))
                continue
            if tried and automorphisms:
                fixing = [p for p, fixed in automorphisms.items() if not used & ~fixed]
                if _orbit_closure(tried, fixing) >> v & 1:
                    continue
            tried |= 1 << v
            if r < best[pos]:
                best[pos] = r
                for j in range(pos + 1, n):
                    best[j] = sentinel
                first = None
            placed.append(v)
            for u in nbrs[v]:
                acc[u] |= bit
            dfs(pos + 1, used | 1 << v)
            for u in nbrs[v]:
                acc[u] ^= bit
            placed.pop()

    dfs(0, 0)
    return (n, *best), list(automorphisms), first


# A hereditary property of graphs, given by which neighborhoods a new vertex
# may take: admits(adj, nb) says whether joining a new vertex to the vertex set
# nb of the graph with adjacency rows adj keeps the property.
Admits = Callable[[Sequence[int], int], bool]


def _any_neighborhood(adj: Sequence[int], nb: int) -> bool:
    return True


def _independent_neighborhood(adj: Sequence[int], nb: int) -> bool:
    """The new vertex closes no triangle: no two of its neighbors are adjacent."""
    return not any(adj[u] & nb for u in bits(nb))


# admits -> its levels; levels[k] holds the classes on k + 1 vertices, and
# the connected ones among them
_LEVELS: dict[Admits, list[tuple[list[Graph], list[Graph]]]] = {}


def _children(parent: Graph, admits: Admits) -> Iterator[tuple[list[int], bool]]:
    """Adjacency rows of the children of parent: its admissible one-vertex
    extensions whose new vertex is a canonical deletion, one neighborhood
    per orbit of the parent's automorphism group.

    A canonical deletion of a graph is a vertex in the orbit of m, a vertex
    chosen alike in isomorphic graphs: among the vertices of minimum
    invariant (degree, sorted neighbor degrees), those of the least refined
    color, and of those the first in the ordering ``_canonical_search``
    returns.  Orderings with the key's rows differ by an automorphism, so an
    isomorphism maps the orbit of m onto the orbit of m in its image.  So
    every class is kept from the class its canonical deletion leaves, and
    only once (McKay's canonical augmentation): if two kept children are
    isomorphic, some isomorphism maps new vertex to new vertex, and it
    restricts to an automorphism of the parent mapping one neighborhood to
    the other.

    Degrees reject most extensions: a new vertex of degree d needs no parent
    vertex of degree below d - 1 and every one of degree d - 1 among its
    neighbors.  ``_deletes_canonically`` decides the rest from the vertices
    tied with it at degree d.

    Each child comes with whether it is connected, read from the parent: it
    is when its new vertex's neighborhood meets every component of the
    parent, whose components are found once.

    An automorphism p of the parent extends, fixing the new vertex, to an
    isomorphism from the extension by nb to the extension by p(nb).  So both
    children are one class, and every test here gives both the same answer:
    the degree conditions and canonical deletion are isomorphism invariants,
    and so is ``admits``, a hereditary property of the child.  Only the
    least mask of each orbit is extended.
    """
    k = parent.n
    base = parent.adj
    deg = parent.degrees
    at_degree = [0] * (k + 1)
    for v, dv in enumerate(deg):
        at_degree[dv] |= 1 << v
    top = min(deg) + 1
    automorphisms = _canonical_search(k, base)[1]
    components = parent.component_masks()
    seen: set[int] = set()  # masks of the orbits already handled
    for nb in range(1 << k):
        d = nb.bit_count()
        if (d > top or d and at_degree[d - 1] & ~nb or nb in seen
                or not admits(base, nb)):
            continue
        seen.add(nb)
        orbit = [nb]
        for m in orbit:
            for p in automorphisms:
                image = 0
                for v in bits(m):
                    image |= 1 << p[v]
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        adj = list(base)
        for v in bits(nb):
            adj[v] |= 1 << k
        adj.append(nb)
        tied = (at_degree[d - 1] if d else 0) | at_degree[d] & ~nb
        if not tied or _deletes_canonically(adj, tied):
            yield adj, all(nb & c for c in components)


def _deletes_canonically(adj: list[int], tied: int) -> bool:
    """Whether the last vertex v of the graph with adjacency rows adj is a
    canonical deletion (see ``_children``), given tied, the other vertices
    of v's degree, none of lower degree.

    The cheap tests come first, the search last, in four steps:

    - invariant: v has the minimum invariant when no tied vertex has a
      smaller one, and m is v when no other vertex, no rival, has v's
      invariant.
    - twins: when every rival is a twin of v, the rivals and v are pairwise
      twins and share one color, so m is one of them, and the swap of m and
      v is an automorphism.
    - color: refinement splits only cells of one invariant, so v's color
      must be the least among the rivals', and m lies in v's cell.  When
      that cell is a set of pairwise twins, v is in m's orbit as above.
    - search: only otherwise is the child searched, with the coloring
      already made, for m and its automorphism group.
    """
    deg = list(map(int.bit_count, adj))
    v = len(adj) - 1
    mine = sorted(map(deg.__getitem__, bits(adj[v])))
    rivals = []  # the other vertices with v's invariant
    for w in bits(tied):
        theirs = sorted(map(deg.__getitem__, bits(adj[w])))
        if theirs < mine:
            return False
        if theirs == mine:
            rivals.append(w)
    if all(adj[w] & ~(1 << v) == adj[v] & ~(1 << w) for w in rivals):
        return True
    coloring = _coloring(adj)
    colors = coloring[2]
    c = colors[v]
    if any(colors[w] < c for w in rivals):
        return False
    cell = [w for w in rivals if colors[w] == c]
    if all(adj[w] & ~(1 << v) == adj[v] & ~(1 << w) for w in cell):
        return True
    _, generators, order = _canonical_search(len(adj), adj, coloring)
    m = next(w for w in order if colors[w] == c)
    return bool(_orbit_closure(1 << m, generators) >> v & 1)


def _levels(n: int, admits: Admits, connected_only: bool = False) -> list[Graph]:
    """Every class on n vertices with the hereditary property admits, once
    each, in the labeling it was built in and in the order generated; with
    connected_only, the connected ones, in the same order."""
    levels = _LEVELS.setdefault(admits, [([Graph(1)], [Graph(1)])])
    while len(levels) < n:
        level: list[Graph] = []
        connected: list[Graph] = []
        for parent in levels[-1][0]:
            for adj, joined in _children(parent, admits):
                g = Graph._from_rows(adj)
                level.append(g)
                if joined:
                    connected.append(g)
        levels.append((level, connected))
    level, connected = levels[n - 1]
    return connected if connected_only else level


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    Level n extends each class on n - 1 vertices by a new vertex, in every way
    where the new vertex is a canonical deletion of the result, and keeps
    each such child on the spot (McKay's canonical augmentation; see
    ``_children``).  Neighborhoods that an automorphism of the parent maps
    onto each other give isomorphic children and pass or fail every test
    alike, so only one per orbit is tried (parent-orbit pruning).  Each
    representative keeps the labeling it was built in, its parent's labels
    with the new vertex last, and classes come in the order generated:
    parent by parent, and each parent's neighborhoods in ascending mask
    order.  Every run gives the same graphs in the same order.  Whether a
    class is connected is read from its parent as it is built (see
    ``_children``), so ``connected_only`` tests no class again.
    Correctness is anchored to the known class counts (tested); the documented
    cap is n = 8.  Beyond that, read a graph6 corpus file instead.
    """
    if n < 1:
        raise ValueError("enumerate_graphs requires n >= 1")
    if n > ENUMERATION_CAP:
        raise SizeLimitError(
            f"enumeration capped at n = {ENUMERATION_CAP}; use a graph6 corpus file"
        )
    yield from _levels(n, _any_neighborhood, connected_only)


def enumerate_triangle_free(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of triangle-free graphs.

    Generated like ``enumerate_graphs``: canonical augmentation, each class
    in the labeling it was built in, in the order generated.
    Triangle-freeness is hereditary, so each level extends only by
    independent neighborhoods; that keeps the class counts small enough to
    reach n = 10.
    """
    if n < 1:
        raise ValueError("enumerate_triangle_free requires n >= 1")
    if n > TRIANGLE_FREE_CAP:
        raise SizeLimitError(
            f"triangle-free enumeration capped at n = {TRIANGLE_FREE_CAP}"
        )
    yield from _levels(n, _independent_neighborhood, connected_only)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.n) if g.degrees[v] == 0]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
