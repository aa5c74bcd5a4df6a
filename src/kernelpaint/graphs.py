"""Core graph type, generators, elementary statistics and small-graph enumeration.

Vertices are dense integers ``0..n-1``.  A :class:`Graph` is immutable after
construction; every operation in this module is a pure function, so graphs can
be shared freely across threads.

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

    Takes a graph, or a vertex count and its adjacency rows.  Exhaustive
    branch and bound; the bound on a subtree is the weight of the vertices
    still available, carried down the search: a branch subtracts the weight
    of the vertices it removes, a bit count when every weight is 1.  Among
    maximum-weight sets the witness is the one whose sorted vertex tuple is
    lexicographically smallest, which keeps downstream expectations
    deterministic.  Weights must be nonnegative.
    """
    if adj is None:
        g_or_n, adj = g_or_n.n, g_or_n.adj
    best_w = -1
    best_set = 0

    def weight_of(mask: int) -> int:
        t = 0
        while mask:
            low = mask & -mask
            t += weights[low.bit_length() - 1]
            mask ^= low
        return t

    rest_weight = int.bit_count if all(w == 1 for w in weights) else weight_of

    def dfs(avail: int, rest: int, cur_w: int, cur_set: int) -> None:
        # rest is the weight of avail
        nonlocal best_w, best_set
        if not avail:
            if cur_w > best_w or cur_w == best_w and lex_less(cur_set, best_set):
                best_w, best_set = cur_w, cur_set
            return
        if cur_w + rest < best_w:
            return
        bit = avail & -avail
        v = bit.bit_length() - 1
        gone = avail & (adj[v] | bit)
        dfs(avail ^ gone, rest - rest_weight(gone), cur_w + weights[v], cur_set | bit)
        dfs(avail ^ bit, rest - weights[v], cur_w, cur_set)

    full = (1 << g_or_n) - 1
    dfs(full, rest_weight(full), 0, 0)
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


def _canonical_search(n: int,
                      adj: Sequence[int]) -> tuple[tuple, list[tuple[int, ...]]]:
    """The canonical key of the graph with adjacency rows adj, and a list of
    automorphisms (``p[v]`` is the image of v) that generates its group.

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
    out to be.

    Together these generate the whole group.  Leaves with the final rows are
    never cut by the bound, and every automorphism g maps the first of them,
    L, to another one.  If g(L) was skipped, some h generated by what was
    found maps it into the searched subtree of a tried candidate, one level
    deeper than before; repeating reaches a visited leaf L' with
    g(L) = h1...hk(L'), and the map from L to L' was reported.
    """
    if n == 0:
        return (0,), []
    nbrs = [bits(a) for a in adj]
    # Twins share their open neighborhood when not adjacent and their closed
    # one when adjacent.  No vertex has twins of both kinds (an open twin of
    # v would be adjacent to v's closed twin, hence to v), so the twin
    # classes number n less the merges of each kind.
    twin_classes = len(set(adj)) + len({a | 1 << v for v, a in enumerate(adj)}) - n
    colors = _refine(nbrs, twin_classes)
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
        return (n, *rows), generators
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
    return (n, *best), list(automorphisms)


# A hereditary property of graphs, given by which neighborhoods a new vertex
# may take: admits(adj, nb) says whether joining a new vertex to the vertex set
# nb of the graph with adjacency rows adj keeps the property.
Admits = Callable[[Sequence[int], int], bool]


def _any_neighborhood(adj: Sequence[int], nb: int) -> bool:
    return True


def _independent_neighborhood(adj: Sequence[int], nb: int) -> bool:
    """The new vertex closes no triangle: no two of its neighbors are adjacent."""
    return not any(adj[u] & nb for u in bits(nb))


# admits -> its levels; levels[k] holds the classes on k + 1 vertices
_LEVELS: dict[Admits, list[list[Graph]]] = {}


def _from_key(key: tuple) -> Graph:
    """The graph whose adjacency rows, below the diagonal, are the key's rows.

    Row p of a key has bit ``n - 1 - i`` set when position p is adjacent to
    the earlier position i, so the result is the class in canonical labeling.
    Those rows are loop-free and each pair is met once, so the symmetric
    rows are set directly, without ``Graph``'s checks of each pair.
    """
    n = key[0]
    adj = [0] * n
    for p, row in enumerate(key[1:]):
        for b in bits(row):
            i = n - 1 - b
            adj[p] |= 1 << i
            adj[i] |= 1 << p
    return Graph._from_rows(adj)


def _children(parent: Graph, admits: Admits) -> Iterator[list[int]]:
    """Adjacency rows of each admissible one-vertex extension of parent whose
    new vertex has the minimum invariant (degree, sorted neighbor degrees),
    one neighborhood per orbit of the parent's automorphism group.

    The invariant is preserved by isomorphisms, every class has a vertex of
    minimum invariant, and deleting it leaves a class of the previous level,
    so each class is still reached.  Degrees reject most extensions: a new
    vertex of degree d needs no parent vertex of degree below d - 1 and every
    one of degree d - 1 among its neighbors.  Only the vertices tied with it
    at degree d compare sorted neighbor degrees.

    An automorphism p of the parent extends, fixing the new vertex, to an
    isomorphism from the extension by nb to the extension by p(nb).  So both
    children are one class, and every test here gives both the same answer:
    the degree conditions and the invariant comparison are isomorphism
    invariants, and so is ``admits``, a hereditary property of the child.
    Only the least mask of each orbit is extended.
    """
    k = parent.n
    base = parent.adj
    deg = parent.degrees
    at_degree = [0] * (k + 1)
    for v, dv in enumerate(deg):
        at_degree[dv] |= 1 << v
    top = min(deg) + 1
    automorphisms = _canonical_search(k, base)[1]
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
        adj = [a | (nb >> v & 1) << k for v, a in enumerate(base)]
        adj.append(nb)
        tied = (at_degree[d - 1] if d else 0) | at_degree[d] & ~nb
        if tied:
            child_deg = [dv + (nb >> v & 1) for v, dv in enumerate(deg)]
            child_deg.append(d)
            mine = sorted(child_deg[u] for u in bits(nb))
            if any(sorted(child_deg[u] for u in bits(adj[w])) < mine
                   for w in bits(tied)):
                continue
        yield adj


def _levels(n: int, admits: Admits) -> list[Graph]:
    """Every class on n vertices with the hereditary property admits,
    in canonical labeling and ascending key order."""
    levels = _LEVELS.setdefault(admits, [[Graph(1)]])
    while len(levels) < n:
        k = len(levels) + 1
        keys = {canonical_key(k, adj)
                for parent in levels[-1] for adj in _children(parent, admits)}
        levels.append([_from_key(key) for key in sorted(keys)])
    return levels[n - 1]


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    Level n extends each class on n - 1 vertices by a new vertex, in every way
    where the new vertex has the minimum invariant (degree, sorted neighbor
    degrees) of the result (canonical deletion), and keeps one graph per
    ``canonical_key``.  Neighborhoods that an automorphism of the parent maps
    onto each other give isomorphic children and pass or fail every test
    alike, so only one per orbit is tried (parent-orbit pruning).  Each
    representative is its class in canonical labeling (the graph built from
    its key), and classes come in ascending key order, so the output does not
    depend on how the classes were generated.
    Correctness is anchored to the known class counts (tested); the documented
    cap is n = 8.  Beyond that, read a graph6 corpus file instead.
    """
    if n < 1:
        raise ValueError("enumerate_graphs requires n >= 1")
    if n > ENUMERATION_CAP:
        raise SizeLimitError(
            f"enumeration capped at n = {ENUMERATION_CAP}; use a graph6 corpus file"
        )
    for g in _levels(n, _any_neighborhood):
        if not connected_only or g.is_connected():
            yield g


def enumerate_triangle_free(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of triangle-free graphs.

    Generated like ``enumerate_graphs`` (canonical deletion, canonical
    labeling, ascending key order).  Triangle-freeness is hereditary, so each
    level extends only by independent neighborhoods; that keeps the class
    counts small enough to reach n = 10.
    """
    if n < 1:
        raise ValueError("enumerate_triangle_free requires n >= 1")
    if n > TRIANGLE_FREE_CAP:
        raise SizeLimitError(
            f"triangle-free enumeration capped at n = {TRIANGLE_FREE_CAP}"
        )
    for g in _levels(n, _independent_neighborhood):
        if not connected_only or g.is_connected():
            yield g


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.n) if g.degrees[v] == 0]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
