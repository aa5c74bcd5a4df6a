"""Orientation machinery: in-degree-constrained orientations, kernel-perfect
digraphs, Alon-Tarsi counting, and the f-AT / f-KP deciders.

A kernel of a digraph is an independent set K (in the underlying graph) such
that every vertex outside K has an arc into K; a digraph is kernel-perfect
when every induced subdigraph has a kernel.  The central construction here
takes an independent set A, orients the edges touching A so that every vertex
collects enough in-arcs, and doubles every edge not touching A; the result is
kernel-perfect with out-degrees bounded by f(v) - 1, which is exactly what the
painting strategy in :mod:`kernelpaint.verify` consumes.

A :class:`Digraph` is its rows: out- and in-neighbourhoods as bitmasks over
the positions of its sorted vertices.  Orientation, the composite
construction and the f-KP search build it from rows, validation, the kernel
routines and the kernel painter read its rows, and its arcs are derived only
when read.

In-degree-constrained orientations come from Hakimi's theorem by path
reversal on adjacency rows; an infeasible demand yields the largest vertex set
of maximum deficiency.  Kernels have three jobs, each with one routine, and
all rest on one lemma: an independent I is a kernel of D[S] exactly when
I <= S <= I | Absorb(I), Absorb(I) being the vertices with an arc into I.

- The table, ``_kernel_table``: which kernel every induced subdigraph has,
  the smallest, for the kernel painter of :mod:`kernelpaint.verify`.
- The cover, ``_kernel_cover``: whether every induced subdigraph has a
  kernel, for :func:`is_kernel_perfect`.
- The search, ``_smallest_kernel``: the smallest kernel of one set, for the
  f-KP search, which checks each subdigraph as soon as its arcs are decided.

The table and the cover read the same sweep over the independent sets.

The f-AT decider reads the graph polynomial Prod (x_u - x_v): g is f-AT
exactly when a monomial with every exponent below f survives its expansion.
Its witness comes from path reversal, with the smallest surviving monomial
as out-degrees, and ``alon_tarsi_diff`` counts that one witness's Eulerian
subdigraphs by the same kind of expansion, arc by arc.  The f-KP search
starts with a clique bound, which refutes a table without searching when
some clique's budgets are too small for its induced subdigraphs to have
kernels, and keeps its path on an explicit stack.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .bits import bits, mask_of
from .errors import SizeLimitError
from .graphs import Graph

__all__ = [
    "ATCount",
    "ATDecision",
    "Digraph",
    "KPDecision",
    "KernelPerfectCheck",
    "OrientationResult",
    "alon_tarsi_diff",
    "digraph_to_dot",
    "extend_d0_kp",
    "f_KP_witnesses",
    "is_f_AT",
    "is_f_KP",
    "is_kernel_perfect",
    "orient_with_indegrees",
]

KP_CHECK_CAP = 10
AT_ARC_CAP = 24
AT_EDGE_CAP = 14
KP_SEARCH_CAP = 5

DegreeTable = Union[Mapping[int, int], Sequence[int]]


def _integer(x) -> int:
    """x as an int when it is an integer: an int, an integral float, or
    anything with ``__index__``.  A float with a fractional part, a string
    or a bool raises ValueError rather than being truncated or read."""
    if type(x) is int:
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{x!r} is not an integer")


def _table(f: DegreeTable, vertices: Iterable[int]) -> dict[int, int]:
    table = {}
    for v in vertices:
        try:
            x = f[v]
        except (IndexError, KeyError):
            raise ValueError(f"f gives no value for vertex {v}") from None
        if type(x) is not int:
            try:
                x = _integer(x)
            except ValueError as exc:
                raise ValueError(f"f({v}): {exc}") from None
        table[v] = x
    return table


class Digraph:
    """Directed graph on explicit integer vertices, kept as rows.

    ``verts`` lists the vertices in ascending order, and ``out[i]`` and
    ``into[i]`` are the out- and in-neighbourhoods of ``verts[i]`` as
    bitmasks over positions in that list, the form every kernel routine
    reads.  Rows stored, arcs derived on read: ``arcs`` rebuilds the sorted
    arc tuple from the out-rows each time it is read.  Opposite pairs are
    allowed; self-arcs and an arc listed twice are not.  Vertices need not be
    0..n-1, which lets certificates keep the labels of the host graph.
    Treat instances as immutable.
    """

    __slots__ = ("verts", "out", "into")

    def __init__(self, vertices: Iterable[int], arcs: Iterable[tuple[int, int]] = ()):
        verts = tuple(sorted(set(vertices)))
        pos = {v: i for i, v in enumerate(verts)}
        out = [0] * len(verts)
        into = [0] * len(verts)
        for t, h in arcs:
            if t == h:
                raise ValueError(f"self-arc at vertex {t}")
            if t not in pos or h not in pos:
                raise ValueError(f"arc ({t},{h}) uses an unknown vertex")
            i, j = pos[t], pos[h]
            if out[i] >> j & 1:
                raise ValueError(f"arc ({t},{h}) listed twice")
            out[i] |= 1 << j
            into[j] |= 1 << i
        self.verts, self.out, self.into = verts, tuple(out), tuple(into)

    @classmethod
    def _from_rows(cls, vertices: Sequence[int], out: Sequence[int]) -> "Digraph":
        """The digraph with an arc t -> h for every bit h of out[t], t a
        vertex: rows over labels, taken without ``__init__``'s checks of
        each arc.

        The vertices come ascending and nonnegative, and the rows are valid:
        loop-free, every head a vertex.  Where the labels are 0..k-1 they are
        the positions, and the rows are kept as they are.
        """
        verts = tuple(vertices)
        k = len(verts)
        if k and verts[-1] != k - 1:
            pos = {v: i for i, v in enumerate(verts)}
            rows = tuple(mask_of([pos[h] for h in bits(out[t])]) for t in verts)
        else:
            rows = tuple(out[:k])
        into = [0] * k
        for t, row in enumerate(rows):
            bit = 1 << t
            for h in bits(row):
                into[h] |= bit
        d = cls.__new__(cls)
        d.verts, d.out, d.into = verts, rows, tuple(into)
        return d

    @property
    def n(self) -> int:
        return len(self.verts)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.verts)

    @property
    def und(self) -> list[int]:
        """The underlying rows: each out-row joined with its in-row."""
        return [o | i for o, i in zip(self.out, self.into)]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The arcs (t, h) in sorted order, built from the out-rows."""
        verts = self.verts
        return tuple([(t, verts[j]) for t, row in zip(verts, self.out) for j in bits(row)])

    def out_degree(self, v: int) -> int:
        return self.out[self.verts.index(v)].bit_count() if v in self.verts else 0

    def in_degree(self, v: int) -> int:
        return self.into[self.verts.index(v)].bit_count() if v in self.verts else 0

    def underlying_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((t, h) if t < h else (h, t) for t, h in self.arcs)

    def doubled_pairs(self) -> frozenset[tuple[int, int]]:
        ms = set(self.arcs)
        return frozenset(
            (t, h) for t, h in ms if t < h and (h, t) in ms
        )

    def relabel(self, mapping: Mapping[int, int]) -> "Digraph":
        return Digraph(
            [mapping[v] for v in self.verts],
            [(mapping[t], mapping[h]) for t, h in self.arcs],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.verts == other.verts
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return hash((self.verts, self.out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={len(self.arcs)})"


def digraph_to_dot(d: Digraph, name: str = "D") -> str:
    """DOT export; doubled edges appear as two separate arcs."""
    lines = [f"digraph {name} {{"]
    lines += [f"  {v};" for v, row in zip(d.verts, d.und) if not row]
    lines += [f"  {t} -> {h};" for t, h in d.arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# In-degree constrained orientations by path reversal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientationResult:
    """Either an orientation meeting the in-degree demands, or a witness set X
    whose demand exceeds the edges available to it."""

    orientation: Optional[Digraph]
    violating_set: Optional[frozenset[int]]
    deficiency: int = 0

    @property
    def ok(self) -> bool:
        return self.orientation is not None


def orient_with_indegrees(g: Graph, demand: DegreeTable) -> OrientationResult:
    """Orient g so that every vertex v has in-degree >= demand(v), if possible.

    An orientation exists iff every X <= V satisfies
    ||X|| + ||X, V-X|| >= Sum_{v in X} demand(v) (Hakimi).  It is found by
    path reversal on the orientation itself, not by enumeration: every edge
    starts at its smaller end, and while some vertex v lacks in-arcs, a
    shortest directed path from v to a vertex with in-degree above its demand
    is reversed, which moves one in-arc to v.  When some vertex stays short,
    the violating set is every vertex with no directed path to such a surplus
    vertex.  That set has maximum deficiency, and it is the largest such set:
    the union of all sets of maximum deficiency.
    """
    dem = _table(demand, range(g.n))
    if any(val < 0 for val in dem.values()):
        raise ValueError("demands must be nonnegative")
    out, x, deficiency = _orient_masked(g.adj, g.full_mask(), dem)
    if out is None:
        return OrientationResult(None, x, deficiency)
    return OrientationResult(Digraph._from_rows(range(g.n), out), None)


def _orient_masked(
    adj: Sequence[int], mask: int, dem: Mapping[int, int]
) -> tuple[Optional[list[int]], Optional[frozenset[int]], int]:
    """Path reversal on the subgraph with adjacency rows adj induced on a
    vertex mask, keeping labels; dem gives the demand of every vertex of mask.

    Returns the out-rows of an orientation meeting every demand, or None with
    the violating set and its deficiency.
    """
    verts = bits(mask)
    # out[v]: out-neighbours of v; spare[v]: in-degree minus demand.  Every
    # edge starts at its smaller end.
    out = [0] * len(adj)
    spare = [0] * len(adj)
    for v in verts:
        nbrs = adj[v] & mask
        out[v] = nbrs >> (v + 1) << (v + 1)
        spare[v] = (nbrs ^ out[v]).bit_count() - dem[v]
    # A vertex that reaches no surplus vertex stays short for good: later
    # reversals only flip arcs among vertices that do reach one.
    for v in verts:
        while spare[v] < 0 and _reverse_path_to_surplus(out, spare, v):
            pass
    if all(spare[v] >= 0 for v in verts):
        return out, None, 0

    # X is every vertex with no directed path to a surplus vertex: search
    # backwards from the surplus vertices along in-arcs.
    stack = [v for v in verts if spare[v] > 0]
    reach = mask_of(stack)
    while stack:
        y = stack.pop()
        fresh = adj[y] & mask & ~out[y] & ~reach
        reach |= fresh
        stack.extend(bits(fresh))
    xmask = mask & ~reach
    x = bits(xmask)
    # the edges inside X, counted from both ends, and those leaving X
    inside = sum((adj[v] & xmask).bit_count() for v in x)
    leaving = sum((adj[v] & mask & ~xmask).bit_count() for v in x)
    deficiency = sum(dem[v] for v in x) - (inside // 2 + leaving)
    assert deficiency > 0, "X must genuinely violate the demand bound"
    return None, frozenset(x), deficiency


def _reverse_path_to_surplus(out: list[int], spare: list[int], v: int) -> bool:
    """Find a shortest out-arc path from v to a vertex whose in-degree exceeds
    its demand and reverse it, moving one in-arc from that vertex to v.  False
    when no such vertex is reachable."""
    parent = {v: v}
    seen = 1 << v
    queue = [v]
    for x in queue:  # the queue grows while it is read
        fresh = out[x] & ~seen
        seen |= fresh
        for y in bits(fresh):
            parent[y] = x
            if spare[y] > 0:
                spare[v] += 1
                spare[y] -= 1
                while y != v:
                    t = parent[y]
                    out[t] ^= 1 << y
                    out[y] ^= 1 << t
                    y = t
                return True
            queue.append(y)
    return False


# ---------------------------------------------------------------------------
# The kernel-perfect composite construction
# ---------------------------------------------------------------------------


def _check_kp_inputs(g: Graph, a_set: frozenset, ftab: Mapping[int, int], mask: int) -> None:
    for v in a_set:
        if not (0 <= v < g.n and mask >> v & 1):
            raise ValueError(f"vertex {v} of A is outside the graph")
    amask = mask_of(a_set)
    for v in a_set:
        if g.adj[v] & amask:
            raise ValueError("A must be independent")
    for v in bits(mask):
        if not 0 <= ftab[v] <= g.deg_in(v, mask) + 1:
            raise ValueError(
                f"f({v}) = {ftab[v]} outside [0, d+1] = [0, {g.deg_in(v, mask) + 1}]"
            )


def _build_kp_masked(
    g: Graph, mask: int, amask: int, ftab: Mapping[int, int]
) -> tuple[Optional[Digraph], Optional[frozenset[int]]]:
    """Kernel-perfect digraph over the vertex mask, labels kept, with
    out-degrees at most f(v) - 1, as (digraph, None).

    A, given as a mask, must be independent and f(v) <= d(v) + 1 everywhere,
    degrees taken inside the mask (``_check_kp_inputs``).  Every edge with
    both ends outside A becomes a pair of opposite arcs; edges touching A are
    oriented so that each vertex gets at least d(v) + 1 - f(v) in-arcs from
    them.  Doubling outside an independent set preserves kernel-perfection,
    and the in-arc quota forces d+(v) <= f(v) - 1.  When the quota is
    infeasible the result is (None, violating vertex set).
    """
    adj = g.adj
    verts = bits(mask)
    amask &= mask
    # Bipartite part: the edges meeting A, as rows (A is independent).
    # Demands are d(v) + 1 - f(v) in the induced subgraph, clamped at 0.
    bip = [row & (mask if amask >> v & 1 else amask) for v, row in enumerate(adj)]
    dem = {v: max(0, (adj[v] & mask).bit_count() + 1 - ftab[v]) for v in verts}
    out, x, _ = _orient_masked(bip, mask, dem)
    if out is None:
        return None, x
    # every edge with both ends outside A, from each end: a doubled pair
    rest = mask & ~amask
    for v in bits(rest):
        out[v] |= adj[v] & rest
    for v in verts:
        assert out[v].bit_count() <= ftab[v] - 1, "construction must bound out-degrees"
    return Digraph._from_rows(verts, out), None


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _smallest_kernel(und: Sequence[int], out: Sequence[int], sub: int) -> Optional[int]:
    """The numerically smallest kernel mask of the subdigraph induced on sub,
    or None when it has no kernel."""
    members = bits(sub)
    pick = 0
    while True:
        for i in members:
            if pick >> i & 1:
                if und[i] & pick:
                    break
            elif not out[i] & pick:
                break
        else:
            return pick
        if pick == sub:
            return None
        pick = (pick - sub) & sub


def _independent_sets(und: Sequence[int], into: Sequence[int]) -> list[tuple[int, int]]:
    """Every independent set I of the digraph with underlying rows und and
    in-rows into, with Absorb(I), the vertices with an arc into I, as
    (I, Absorb(I)) in ascending order of I.

    The sets without vertex v all come before those with it, so appending
    I | {v} for each listed I that misses N(v), in list order, keeps the
    order.  No arc joins two vertices of an independent I, so Absorb(I)
    misses I.
    """
    sweep = [(0, 0)]
    for v, row in enumerate(und):
        bit, arcs_in = 1 << v, into[v]
        sweep += [(i | bit, free | arcs_in) for i, free in sweep if not i & row]
    return sweep


def _kernel_table(und: Sequence[int], into: Sequence[int]) -> list[Optional[int]]:
    """The smallest kernel mask of every induced subdigraph, indexed by its
    vertex mask; None where that subdigraph has no kernel.  ``und`` and
    ``into`` are the underlying rows and the in-rows.

    Each independent I, in ascending order, is recorded for every S with
    I <= S <= I | Absorb(I) not yet reached, so the entry of S is what
    ``_smallest_kernel`` returns for S.
    """
    table: list[Optional[int]] = [None] * (1 << len(und))
    for i, free in _independent_sets(und, into):
        sub = free
        while True:
            if table[i | sub] is None:
                table[i | sub] = i
            if not sub:
                break
            sub = (sub - 1) & free
    return table


@functools.lru_cache(maxsize=None)
def _cube(n: int) -> tuple[int, ...]:
    """cube[f], for every mask f on n vertices, has bit s set for every
    submask s of f: a 2^n-bit indicator, built once per n."""
    cube = [1]
    for v in range(n):
        cube += [c | c << (1 << v) for c in cube]
    return tuple(cube)


def _kernel_cover(und: Sequence[int], into: Sequence[int]) -> int:
    """A 2^n-bit mask with bit S set exactly when the subdigraph induced on S
    has a kernel; ``und`` and ``into`` are the underlying rows and the
    in-rows.

    An independent I is a kernel of D[S] for every S = I | s, s a submask of
    Absorb(I), so it sets the bits of ``cube[Absorb(I)] << I``; s misses I,
    so I | s = I + s.
    """
    cube = _cube(len(und))
    cover = 0
    for i, free in _independent_sets(und, into):
        cover |= cube[free] << i
    return cover


@dataclass(frozen=True)
class KernelPerfectCheck:
    is_kernel_perfect: bool
    offending: Optional[frozenset[int]]  # vertex set of a kernel-free induced subdigraph

    def __bool__(self) -> bool:
        return self.is_kernel_perfect


def is_kernel_perfect(d: Digraph) -> KernelPerfectCheck:
    """Exhaustively check that every induced subdigraph has a kernel (n <= 10).

    The offending set, if any, is the kernel-free vertex set of smallest
    mask: the lowest bit the kernel cover leaves clear.
    """
    if d.n > KP_CHECK_CAP:
        raise SizeLimitError(f"kernel-perfection check capped at {KP_CHECK_CAP} vertices")
    cover = _kernel_cover(d.und, d.into)
    if cover == (1 << (1 << d.n)) - 1:
        return KernelPerfectCheck(True, None)
    first = (~cover & (cover + 1)).bit_length() - 1  # the lowest clear bit
    return KernelPerfectCheck(False, frozenset(d.verts[i] for i in bits(first)))


# ---------------------------------------------------------------------------
# Alon-Tarsi counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ATCount:
    diff: int
    even: int
    odd: int


def alon_tarsi_diff(d: Digraph) -> ATCount:
    """Counts of even/odd spanning Eulerian subdigraphs and their difference.

    A subdigraph (arc subset) is Eulerian when every vertex has equal in-
    and out-degree within it, and even/odd by the parity of its arc count.
    The empty subset is even, so the even count is always at least 1.
    The arc subsets are expanded arc by arc, in sorted arc order with arcs
    read over positions from the out-rows, as ``is_f_AT`` expands its
    polynomial: each balance vector (out- less in-degree at every vertex)
    maps to the counts of even and odd subsets reaching it, and one is
    dropped as soon as some vertex can no longer be rebalanced by the
    remaining arcs.
    """
    arcs = [(t, h) for t, row in enumerate(d.out) for h in bits(row)]
    if len(arcs) > AT_ARC_CAP:
        raise SizeLimitError(f"Eulerian counting capped at {AT_ARC_CAP} arcs")
    # left[v]: arc incidences at position v among the arcs not yet expanded
    left = [o.bit_count() + i.bit_count() for o, i in zip(d.out, d.into)]
    # a balance vector is packed into one int, `width` bits a vertex, each
    # field holding the balance plus `bias`, which exceeds every incidence count
    width = max(left, default=0).bit_length() + 1
    bias, fill = 1 << width - 1, (1 << width) - 1
    zero = sum(bias << width * v for v in range(d.n))
    counts = {zero: (1, 0)}  # balance vector -> (even, odd) subsets reaching it
    for t, h in arcs:
        left[t] -= 1
        left[h] -= 1
        st, sh = width * t, width * h
        step = (1 << st) - (1 << sh)
        nxt: dict[int, tuple[int, int]] = {}
        for key, (even, odd) in counts.items():
            # skip the arc, then take it
            for k, e, o in ((key, even, odd), (key + step, odd, even)):
                if (abs((k >> st & fill) - bias) <= left[t]
                        and abs((k >> sh & fill) - bias) <= left[h]):
                    got = nxt.get(k)
                    nxt[k] = (e, o) if got is None else (got[0] + e, got[1] + o)
        counts = nxt
    even, odd = counts[zero]
    return ATCount(even - odd, even, odd)


# ---------------------------------------------------------------------------
# f-AT and f-KP deciders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ATDecision:
    value: bool
    witness: Optional[Digraph]
    counts: Optional[ATCount]

    def __bool__(self) -> bool:
        return self.value


def is_f_AT(g: Graph, f: DegreeTable) -> ATDecision:
    """Does g have an orientation with d+(v) <= f(v)-1 and EE != EO?

    Decided by the graph polynomial P = Prod_{uv in E, u < v} (x_u - x_v).
    Choosing x_u from the factor of uv orients the edge u -> v, so a
    monomial's exponents are the out-degrees of the orientations behind it,
    and by Alon and Tarsi (Combinatorica 12, 1992) its coefficient is
    +-(EE(D) - EO(D)) for each such orientation D.  So g is f-AT exactly
    when P has a nonzero monomial with every exponent at most f(v) - 1.
    P is expanded edge by edge in exact integers; exponents only grow, so a
    monomial is dropped as soon as one passes its bound, and one whose
    coefficient cancels to 0 is dropped too.

    The witness is an orientation whose out-degrees are the smallest
    surviving monomial K, the least packed key below (exponent vectors
    compared from the last vertex down): the one ``orient_with_indegrees``
    finds for in-degrees d - K.  Those sum to m, so every such orientation
    has out-degrees exactly K, and its counts come from one
    ``alon_tarsi_diff``.
    """
    if g.m > AT_EDGE_CAP:
        raise SizeLimitError(f"orientation enumeration capped at {AT_EDGE_CAP} edges")
    ftab = _table(f, range(g.n))
    budget = [ftab[v] - 1 for v in range(g.n)]
    if any(b < 0 for b in budget):
        return ATDecision(False, None, None)
    # a monomial is its exponent vector packed into one int, `width` bits a
    # vertex; no exponent passes the degree
    width = max(g.degrees, default=0).bit_length()
    top = (1 << width) - 1
    poly = {0: 1}
    for u, v in sorted(g.edges):
        su, sv = width * u, width * v
        nxt: dict[int, int] = {}
        for key, coef in poly.items():
            if key >> su & top < budget[u]:
                k = key + (1 << su)
                nxt[k] = nxt.get(k, 0) + coef
            if key >> sv & top < budget[v]:
                k = key + (1 << sv)
                nxt[k] = nxt.get(k, 0) - coef
        poly = {key: coef for key, coef in nxt.items() if coef}
    if not poly:
        return ATDecision(False, None, None)
    key = min(poly)
    demand = [dv - (key >> width * v & top) for v, dv in enumerate(g.degrees)]
    d = orient_with_indegrees(g, demand).orientation
    counts = alon_tarsi_diff(d)
    assert abs(counts.diff) == abs(poly[key]), "Alon-Tarsi coefficient identity"
    return ATDecision(True, d, counts)


@dataclass(frozen=True)
class KPDecision:
    value: bool
    witness: Optional[Digraph]

    def __bool__(self) -> bool:
        return self.value


def is_f_KP(g: Graph, f: DegreeTable, allow_supergraph: bool = True) -> KPDecision:
    """Does g have a kernel-perfect oriented supergraph with d+(v) <= f(v)-1?

    The witness, if any, is the first one :func:`f_KP_witnesses` yields: its
    search decides vertex pairs in colex order and prunes a branch at the
    first induced subdigraph without a kernel.
    """
    witness = next(f_KP_witnesses(g, f, allow_supergraph), None)
    return KPDecision(witness is not None, witness)


def f_KP_witnesses(g: Graph, f: DegreeTable,
                   allow_supergraph: bool = True) -> Iterator[Digraph]:
    """Every kernel-perfect oriented supergraph of g with d+(v) <= f(v)-1.

    The supergraph keeps the vertex set; every edge of g must carry at least
    one arc and may carry both; with ``allow_supergraph`` non-edges may also
    gain one or two arcs (at most one arc per direction either way).  Setting
    ``allow_supergraph=False`` restricts to strict orientations of g itself:
    single arcs on edges, nothing elsewhere.  Exhaustive, for n <= 5.

    Vertex pairs are decided in colex order, (0,1), (0,2), (1,2), (0,3), ...
    Once pair (u, k) is decided, so is every induced subdigraph whose two
    largest vertices are u < k, and each of those must have a kernel.
    Kernel-perfection is hereditary, so a branch is pruned at the first one
    without; a branch that decides every pair has had each vertex set of two
    or more vertices checked exactly once, so it is kernel-perfect.  A branch
    is also pruned when the out-degree left to spend cannot give every
    undecided edge an arc.  Witnesses come out in the fixed order of this
    search, which is not the order of sorted pairs.

    Before searching, a clique bound can show there is no witness at all.
    In a witness D every pair of a clique Q of g carries an arc, so an
    independent set of D[S], S a subset of Q, has at most one vertex, and
    each D[S] has a one-vertex kernel: a vertex every other vertex of S has
    an arc into.  Peel kernels off Q one at a time.  The j-th vertex peeled
    has arcs from the |Q| - j vertices still left, so, read in reverse, the
    peeled vertices have |Q| - 1, |Q| - 2, ..., 0 out-arcs inside Q.  Hence
    the budgets f(v) - 1 on Q, sorted ascending, are at least 0, 1, ...,
    |Q| - 1 term by term; when some clique's are not, nothing is yielded.
    This is a necessary condition, not the Gallai dichotomy: a table that
    passes it may still have no witness.
    """
    if g.n > KP_SEARCH_CAP:
        raise SizeLimitError(f"kernel-perfect search capped at n = {KP_SEARCH_CAP}")
    ftab = _table(f, range(g.n))
    budget = [ftab[v] - 1 for v in range(g.n)]
    if any(b < 0 for b in budget) or _clique_refutes(g.adj, budget):
        return
    pairs = [(u, k) for k in range(g.n) for u in range(k)]
    edges_after = [sum(g.has_edge(*p) for p in pairs[i:]) for i in range(len(pairs) + 1)]
    spent = [0] * g.n
    # underlying and out-neighbourhoods of the arcs placed so far, as masks
    und = [0] * g.n
    out = [0] * g.n

    def options(u: int, v: int) -> list[tuple[tuple[int, int], ...]]:
        arcs = [((u, v),), ((v, u),), ((u, v), (v, u))]
        if g.has_edge(u, v):
            return arcs if allow_supergraph else arcs[:2]
        return [(), *arcs] if allow_supergraph else [()]

    def kernels_below(u: int, k: int) -> bool:
        # every S = T + {u, k}, T a subset of {0, ..., u-1}
        top = 1 << u | 1 << k
        return all(_smallest_kernel(und, out, low | top) is not None
                   for low in range(1 << u))

    # one frame per pair on the path, from the first: the options it has
    # not tried, and the one it placed last
    stack: list[list] = []
    enter = True  # whether to enter the next pair, len(stack)
    while True:
        if enter:
            i = len(stack)
            if i == len(pairs):
                yield Digraph._from_rows(range(g.n), out)
            # each remaining edge needs an out-arc from one of its endpoints
            elif sum(budget[v] - spent[v] for v in range(g.n)) >= edges_after[i]:
                stack.append([iter(options(*pairs[i])), ()])
        if not stack:
            return
        # the deepest frame takes back its option and places its next one
        frame = stack[-1]
        u, k = pairs[len(stack) - 1]
        for t, h in frame[1]:
            spent[t] -= 1
            out[t] &= ~(1 << h)
        und[u] &= ~(1 << k)
        und[k] &= ~(1 << u)
        for opt in frame[0]:
            if all(spent[t] < budget[t] for t, _ in opt):
                break
        else:
            stack.pop()
            enter = False
            continue
        frame[1] = opt
        for t, h in opt:
            spent[t] += 1
            out[t] |= 1 << h
        if opt:
            und[u] |= 1 << k
            und[k] |= 1 << u
        enter = kernels_below(u, k)


def _clique_refutes(adj: Sequence[int], budget: Sequence[int]) -> bool:
    """Some clique Q of the graph with rows adj has budgets that, sorted
    ascending, fall below 0, 1, ..., |Q| - 1 somewhere: the clique bound of
    :func:`f_KP_witnesses`, tried on every vertex mask."""
    for q in range(1, 1 << len(adj)):
        members = bits(q)
        if all(q & ~adj[v] == 1 << v for v in members) and any(
            b < j for j, b in enumerate(sorted(budget[v] for v in members))
        ):
            return True
    return False


def extend_d0_kp(g: Graph, h_vertices: Iterable[int], h_witness: Digraph) -> Digraph:
    """Grow a degree-bounded kernel-perfect witness by one neighborhood layer.

    Given an induced subgraph H of connected g with a kernel-perfect witness
    whose out-degrees satisfy d+(v) < d_H(v), returns a witness for
    H union S, S the outside neighbors of H: edges from H into S point into S,
    edges inside S are doubled.  Iterating reaches all of g.
    """
    h_set = frozenset(h_vertices)
    if not g.is_connected():
        raise ValueError("host graph must be connected")
    if h_set == set(range(g.n)):
        raise ValueError("witness already spans the host graph; nothing to extend")
    if h_witness.vertex_set != h_set:
        raise ValueError("witness vertex set must equal h_vertices")
    hmask = mask_of(h_set)
    for v in h_set:
        if not h_witness.out_degree(v) < g.deg_in(v, hmask):
            raise ValueError(
                f"witness out-degree at {v} must be below its degree inside H"
            )
    s = frozenset(
        u for v in h_set for u in g.neighbors(v) if u not in h_set
    )
    if not s:
        raise ValueError("H has no outside neighbors; host graph is disconnected")
    arcs = list(h_witness.arcs)
    for v in h_set:
        for u in g.neighbors(v):
            if u in s:
                arcs.append((v, u))
    smask = mask_of(s)
    # every edge inside S, once from each end: a doubled pair
    arcs += [(u, v) for u in bits(smask) for v in bits(g.adj[u] & smask)]
    return Digraph(h_set | s, arcs)
