import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kernelpaint import (
    ConstructionError,
    Graph,
    UndefinedStatisticError,
    block_decomposition,
    canonical_key,
    cut_size,
    enumerate_graphs,
    enumerate_triangle_free,
    make_named,
    ore_degree,
    parse_graph6,
    to_dot,
)
from kernelpaint import graphs
from kernelpaint.bits import bits, lex_key, lex_less
from kernelpaint.errors import SizeLimitError


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_degree_sum_is_twice_edge_count():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert sum(g.degrees) == 2 * g.m


def test_make_named_cycle_and_k4e():
    c5 = make_named("cycle", [5])
    assert c5.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})
    k4e = make_named("K4_minus_e")
    assert k4e.n == 4 and k4e.m == 5
    nonadj = [
        (u, v) for u, v in itertools.combinations(range(4), 2) if not k4e.has_edge(u, v)
    ]
    assert len(nonadj) == 1


def test_make_named_o5_degree_sequence():
    o5 = make_named("O_n", [5])
    assert sorted(o5.degrees, reverse=True) == [5, 5, 4, 4, 4, 4, 4, 4, 4]
    assert ore_degree(o5) == 9


def test_make_named_errors():
    with pytest.raises(ConstructionError):
        make_named("no_such_family")
    with pytest.raises(ConstructionError):
        make_named("O_n", [2])
    with pytest.raises(ConstructionError):
        make_named("cycle", [2])


def test_cut_size_examples(c4, k4e):
    assert cut_size(c4, {0, 2}, range(4)) == 4
    assert cut_size(c4, set(), range(4)) == 0
    k3 = make_named("complete", [3])
    assert cut_size(k3, range(3), range(3)) == 2 * k3.m


def test_cut_size_identity_and_symmetry():
    # ||A,B|| = ||A-B, B-A|| + 2||A&B|| + ||A&B, A^B||; the last term vanishes
    # for disjoint or equal sets, the two shapes the decomposition is used in.
    rng = random.Random(5)
    for g in enumerate_graphs(5):
        for _ in range(6):
            a = {v for v in range(g.n) if rng.random() < 0.5}
            b = {v for v in range(g.n) if rng.random() < 0.5}
            assert cut_size(g, a, b) == cut_size(g, b, a)
            both, symdiff = a & b, (a | b) - (a & b)
            assert cut_size(g, a, b) == (
                cut_size(g, a - b, b - a)
                + cut_size(g, both, both)
                + cut_size(g, both, symdiff)
            )
            if not cut_size(g, both, symdiff):
                assert cut_size(g, a, b) == cut_size(g, a - b, b - a) + cut_size(
                    g, both, both
                )
        full = set(range(g.n))
        assert cut_size(g, full, full) == 2 * g.m


def test_ore_clique_and_independence_examples(k4):
    assert ore_degree(k4) == 6
    assert graphs.clique_number(k4) == 4 and graphs.independence_number(k4) == 1
    p3 = make_named("path", [3])
    assert ore_degree(p3) == 3
    assert graphs.clique_number(p3) == 2 and graphs.independence_number(p3) == 2


def _is_independent(adj, mask: int) -> bool:
    return not any(adj[v] & mask for v in range(len(adj)) if mask >> v & 1)


def test_lex_less_orders_masks_like_their_member_tuples():
    for a in range(1 << 7):
        for b in range(1 << 7):
            assert lex_less(a, b) == (lex_key(a) < lex_key(b))


def _lowest_bit_members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_matches_the_lowest_bit_loop():
    # every mask the table holds and past it, then wide seeded masks
    rnd = random.Random(64)
    masks = list(range(1 << 12)) + [rnd.getrandbits(64) for _ in range(1000)]
    for m in masks:
        assert bits(m) == _lowest_bit_members(m)


def test_bits_returns_a_new_list_each_call():
    for m in (0, 0b1011, (1 << 10) - 1, 1 << 10 | 5):
        first = bits(m)
        first.append(99)
        assert bits(m) == _lowest_bit_members(m)
        assert bits(m) is not bits(m)


def test_max_weight_independent_set_matches_definition():
    # maximum weight, then the lexicographically smallest sorted tuple; the
    # zero weights make ties where one witness is a prefix of the other
    rnd = random.Random(9)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            independent = [m for m in range(1 << n) if _is_independent(g.adj, m)]
            seeded = [rnd.randint(0, 3) for _ in range(n)]
            for weights in ([1] * n, list(g.degrees), seeded):
                weight = {m: sum(weights[v] for v in lex_key(m)) for m in independent}
                top = max(weight.values())
                witness = min((m for m in independent if weight[m] == top), key=lex_key)
                assert graphs.max_weight_independent_set(g, weights) == (top, witness)


def test_alpha_and_omega_match_definition():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            full = (1 << n) - 1
            co = [full & ~(a | 1 << v) for v, a in enumerate(g.adj)]
            assert graphs.independence_number(g) == max(
                m.bit_count() for m in range(1 << n) if _is_independent(g.adj, m))
            assert graphs.clique_number(g) == max(
                m.bit_count() for m in range(1 << n) if _is_independent(co, m))


def test_ore_degree_undefined_on_edgeless():
    with pytest.raises(UndefinedStatisticError):
        ore_degree(Graph(3))


def test_blocks_k3_p3_bowtie(bowtie):
    bt = block_decomposition(make_named("complete", [3]))
    assert bt.blocks == (frozenset({0, 1, 2}),) and not bt.cutvertices
    bt = block_decomposition(make_named("path", [3]))
    assert set(bt.blocks) == {frozenset({0, 1}), frozenset({1, 2})}
    assert bt.cutvertices == {1}
    bt = block_decomposition(bowtie)
    assert set(bt.blocks) == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    assert bt.cutvertices == {2}


def test_blocks_partition_edges_and_isolated_vertices():
    for g in enumerate_graphs(6):
        bt = block_decomposition(g)
        per_edge = {}
        for i, b in enumerate(bt.blocks):
            for u, v in g.edges:
                if u in b and v in b:
                    per_edge.setdefault((u, v), []).append(i)
        assert all(len(ids) == 1 for ids in per_edge.values())
        assert len(per_edge) == g.m
        for b1, b2 in itertools.combinations(bt.blocks, 2):
            shared = b1 & b2
            assert len(shared) <= 1
            assert all(v in bt.cutvertices for v in shared)
        covered = set().union(*bt.blocks) if bt.blocks else set()
        assert covered == set(range(g.n))


def _gallai_count_forests():
    """The forests gallai-count checks at its default seed, read back from
    its report."""
    from kernelpaint import run_suite

    report = run_suite("gallai-count")
    return [parse_graph6(r["graph6"]) for r in report.records if "index" in r]


def test_block_masks_match_networkx():
    """_block_masks gives networkx's biconnected components plus one block per
    isolated vertex, on every atlas graph and on gallai-count's forests, and
    block_decomposition is its sorted view, cutvertices included."""
    nx = pytest.importorskip("networkx")
    atlas = [Graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()]
    forests = _gallai_count_forests()
    assert len(forests) == 3000
    for g in atlas + forests:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = {frozenset(c) for c in nx.biconnected_components(h)}
        want |= {frozenset([v]) for v in range(g.n) if not g.degrees[v]}
        masks = graphs._block_masks(g.adj)
        assert len(masks) == len(want)
        assert {frozenset(bits(b)) for b in masks} == want
        bt = block_decomposition(g)
        assert list(bt.blocks) == sorted(want, key=sorted)
        assert bt.cutvertices == set(nx.articulation_points(h))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 6
    assert sum(1 for _ in enumerate_graphs(5)) == 34
    assert sum(1 for _ in enumerate_graphs(6)) == 156
    assert sum(1 for _ in enumerate_graphs(6, connected_only=True)) == 112
    assert sum(1 for _ in enumerate_graphs(7)) == 1044
    assert sum(1 for _ in enumerate_graphs(8)) == 12346
    with pytest.raises(SizeLimitError):
        list(enumerate_graphs(9))


def test_triangle_free_counts():
    # OEIS A006785
    expected = {4: 7, 5: 14, 6: 38, 7: 107, 8: 410, 9: 1897, 10: 12172}
    for n, count in expected.items():
        tf = list(enumerate_triangle_free(n))
        assert len(tf) == count
        assert all(not g.has_triangle() for g in tf)
    with pytest.raises(SizeLimitError):
        list(enumerate_triangle_free(11))


def _extend_unfiltered(level: dict, n: int, keep) -> dict:
    """Classes on n vertices: every class of level joined to a new vertex in
    every way whose result keep accepts, one graph per canonical key."""
    out = {}
    for parent in level.values():
        for nb in range(1 << (n - 1)):
            g = Graph(n, list(parent.edges) + [(v, n - 1) for v in range(n - 1) if nb >> v & 1])
            if keep(g):
                out.setdefault(canonical_key(g), g)
    return out


def _own_rows(g: Graph) -> tuple:
    """g's adjacency rows below the diagonal, in canonical_key's row format."""
    return (g.n, *(sum(1 << (g.n - 1 - i) for i in range(p) if g.has_edge(i, p))
                   for p in range(g.n)))


@pytest.mark.parametrize("generate, keep, top", [
    (enumerate_graphs, lambda g: True, 7),
    (enumerate_triangle_free, lambda g: not g.has_triangle(), 8),
], ids=["all", "triangle-free"])
def test_enumeration_matches_unfiltered_extension(generate, keep, top):
    # slow path: no invariant filter, only deduplication by canonical key
    level = {canonical_key(Graph(1)): Graph(1)}
    for n in range(1, top + 1):
        if n > 1:
            level = _extend_unfiltered(level, n, keep)
        keys = [canonical_key(g) for g in generate(n)]
        assert set(keys) == set(level)
        # each graph is its class in canonical labeling, in ascending key order
        assert keys == [_own_rows(g) for g in generate(n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 10),
    st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]),
    st.randoms(use_true_random=False),
)
def test_canonical_key_is_relabeling_invariant(n, density, rnd):
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rnd.random() < density
    ]
    g = Graph(n, edges)
    perm = list(range(n))
    rnd.shuffle(perm)
    h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    assert canonical_key(g) == canonical_key(h)


def test_canonical_key_agrees_with_networkx_atlas():
    # The atlas holds one graph per isomorphism class on at most 7 vertices.
    nx = pytest.importorskip("networkx")
    rnd = random.Random(2014)
    atlas_keys: dict[int, set[tuple]] = {}
    atlas = nx.graph_atlas_g()
    for a in atlas:
        n = a.number_of_nodes()
        key = canonical_key(Graph(n, a.edges()))
        perm = list(range(n))
        rnd.shuffle(perm)
        assert canonical_key(Graph(n, [(perm[u], perm[v]) for u, v in a.edges()])) == key
        atlas_keys.setdefault(n, set()).add(key)
    assert sum(len(keys) for keys in atlas_keys.values()) == len(atlas) == 1253
    for n in range(1, 8):
        assert {canonical_key(g) for g in enumerate_graphs(n)} == atlas_keys[n]


def _preserves_adjacency(g: Graph, perm) -> bool:
    return all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)


def _group_order(n: int, generators) -> int:
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        a = todo.pop()
        for p in generators:
            c = tuple(p[a[v]] for v in range(n))
            if c not in group:
                group.add(c)
                todo.append(c)
    return len(group)


def test_canonical_search_generates_the_automorphism_group():
    rnd = random.Random(77)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            for h in (g, Graph(n, [(perm[u], perm[v]) for u, v in g.edges])):
                key, automorphisms = graphs._canonical_search(n, h.adj)
                assert key == canonical_key(h)
                assert all(_preserves_adjacency(h, p) for p in automorphisms)
                if n <= 6:
                    brute = sum(1 for p in itertools.permutations(range(n))
                                if _preserves_adjacency(h, p))
                    assert _group_order(n, automorphisms) == brute


@pytest.mark.parametrize("generate, n, classes, cap", [
    (enumerate_graphs, 8, 12346, 15_300),           # 23,321 keys before orbit pruning
    (enumerate_triangle_free, 10, 12172, 17_400),   # 23,023 keys before orbit pruning
], ids=["all", "triangle-free"])
def test_orbit_pruning_keys_fewer_children(monkeypatch, generate, n, classes, cap):
    calls = []
    key = graphs.canonical_key
    monkeypatch.setattr(graphs, "_LEVELS", {})  # a cold cache
    monkeypatch.setattr(graphs, "canonical_key", lambda *a: calls.append(a) or key(*a))
    assert sum(1 for _ in generate(n)) == classes
    assert len(calls) <= cap


def _tuple_refine(nbrs) -> list[int]:
    """Color refinement as defined: from one cell, rank the vertices by
    (color, sorted neighbor colors) until no cell splits."""
    colors, ncells = [0] * len(nbrs), 1
    while True:
        keys = [(c, tuple(sorted(colors[u] for u in nv))) for c, nv in zip(colors, nbrs)]
        table = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [table[k] for k in keys]
        if len(table) == ncells:
            return colors
        ncells = len(table)


def test_refine_int_keys_match_tuple_refinement():
    corpus = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    corpus += [g for n in range(1, 10) for g in enumerate_triangle_free(n)]
    rnd = random.Random(40)
    for _ in range(30):
        # 30-40 vertices, degrees >= 16: a cell can hold 16 or more neighbors
        # of a vertex, whose count needs a digit wider than 4 bits
        n = rnd.randint(30, 40)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rnd.random() < 0.8])
        assert min(g.degrees) >= 16
        corpus.append(g)
        # a circulant of degree 2k >= 16 less a few edges: one big cell
        # that splits over several rounds
        k = rnd.randint(8, 12)
        edges = {tuple(sorted((v, (v + d) % n))) for v in range(n) for d in range(1, k + 1)}
        corpus.append(Graph(n, edges - set(rnd.sample(sorted(edges), rnd.randint(1, 3)))))
    # x = 0 and y = 1 have degree 17; over the cells of degree 1, 3 and 4
    # they count (1, 0, 16) and (0, 17, 0) neighbors, one key in 4-bit digits
    b, c = list(range(3, 20)), list(range(20, 36))
    edges = [(0, 2)] + [(0, v) for v in c] + [(1, v) for v in b]
    edges += [(b[i - 1], b[i]) for i in range(17)] + [(c[i - 1], c[i]) for i in range(16)]
    edges += [(c[i], c[i + 8]) for i in range(8)]
    corpus.append(Graph(36, edges))
    assert corpus[-1].degrees[:4] == (17, 17, 1, 3)
    for g in corpus:
        nbrs = [g.neighbors(v) for v in range(g.n)]
        stable = _tuple_refine(nbrs)
        assert graphs._refine(nbrs, g.n) == stable
        # stopping at as many cells as twin classes leaves the same coloring
        assert graphs._refine(nbrs, _twin_class_count(g)) == stable


def _twins(g: Graph, u: int, v: int) -> bool:
    return g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)


def _twin_class_count(g: Graph) -> int:
    """Classes of the twin relation, one representative at a time."""
    reps: list[int] = []
    for v in range(g.n):
        if not any(_twins(g, u, v) for u in reps):
            reps.append(v)
    return len(reps)


def _refined_cells(g: Graph) -> list[list[int]]:
    colors = graphs._refine([g.neighbors(v) for v in range(g.n)], g.n)
    return [[v for v in range(g.n) if colors[v] == c] for c in range(max(colors) + 1)]


def _least_rows_over_color_orderings(g: Graph, cells) -> tuple:
    """The key by definition: the smallest row tuple over every ordering that
    lists the cells in color order, each cell in every order."""
    n = g.n
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        rows = tuple(sum(1 << n - 1 - i for i in range(p) if g.has_edge(order[i], v))
                     for p, v in enumerate(order))
        if best is None or rows < best:
            best = rows
    return (n, *best)


def test_canonical_keys_match_the_least_rows_over_color_orderings():
    rnd = random.Random(19)
    corpus = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            corpus += [g, Graph(n, [(perm[u], perm[v]) for u, v in g.edges])]
    corpus += [g for g in enumerate_graphs(7)
               if math.prod(math.factorial(len(c)) for c in _refined_cells(g)) <= 720]
    kinds = Counter()
    for g in corpus:
        cells = _refined_cells(g)
        assert graphs._canonical_search(g.n, g.adj)[0] == _least_rows_over_color_orderings(g, cells)
        if len(cells) == g.n:
            kinds["discrete"] += 1
        elif all(_twins(g, u, v) for c in cells for u, v in itertools.combinations(c, 2)):
            kinds["twin cells"] += 1
        else:
            kinds["searched"] += 1
    # the shortcut covers graphs with twin cells that are not discrete, and
    # the search still runs on the others
    assert min(kinds["discrete"], kinds["twin cells"], kinds["searched"]) > 0, kinds


def test_from_key_builds_the_graph_of_the_key_rows():
    for n in range(1, 8):
        for key in {canonical_key(g) for g in enumerate_graphs(n)}:
            pairs = [(i, p) for p, row in enumerate(key[1:]) for i in range(p)
                     if row >> (n - 1 - i) & 1]
            built, expected = graphs._from_key(key), Graph(n, pairs)
            assert built == expected and hash(built) == hash(expected)
            assert built.n == n and built.degrees == expected.degrees


THREE_FIVE_CYCLES = "Nhc?GC@@G??@?@??_@G"  # a gallai-count forest: 3 disjoint C5


def test_orbit_pruning_keys_three_five_cycles_fast():
    # Refinement cannot split the 2-regular graph and no two vertices are
    # twins, so without orbit pruning the search walks the orderings of the
    # symmetric components (4.8 s on 2 vCPUs, Python 3.11).  The key below
    # is the one that unpruned search returns.
    g = parse_graph6(THREE_FIVE_CYCLES)
    start = time.perf_counter()
    key, automorphisms = graphs._canonical_search(g.n, g.adj)
    assert time.perf_counter() - start < 1.0
    assert key == (15, 0, 0, 0, 0, 0, 0, 512, 1024, 2048, 4160, 6144, 8320,
                   9216, 16640, 16896)
    assert canonical_key(graphs._from_key(key)) == key
    assert all(_preserves_adjacency(g, p) for p in automorphisms)
    assert _group_order(g.n, automorphisms) == 10 ** 3 * 6  # D5 wr S3


def test_canonical_key_separates_same_degree_sequence():
    # C6 versus two triangles: both 2-regular on six vertices
    c6 = make_named("cycle", [6])
    two_k3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_key(c6) != canonical_key(two_k3)


def test_to_dot_mentions_every_edge(c4):
    dot = to_dot(c4)
    assert dot.startswith("graph")
    assert dot.count(" -- ") == c4.m


# -- adjacency rows against definition-literal oracles -------------------------


def _pair_lists():
    """(n, pairs) for every class on <= 6 vertices, then seeded random lists
    carrying duplicates, reversed pairs and shuffled order."""
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            yield n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                      if g.has_edge(u, v)]
    rnd = random.Random(11)
    for _ in range(60):
        n = rnd.randrange(2, 10)
        pairs = [p for p in itertools.combinations(range(n), 2) if rnd.random() < 0.5]
        pairs += rnd.choices(pairs, k=len(pairs) // 2) if pairs else []
        pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs]
        rnd.shuffle(pairs)
        yield n, pairs


def _normalized(pairs):
    return frozenset((min(p), max(p)) for p in pairs)


def test_rows_match_the_input_pairs():
    for n, pairs in _pair_lists():
        g = Graph(n, pairs)
        edges = _normalized(pairs)
        assert g.edges == edges
        assert g.m == len(edges)
        assert g.degrees == tuple(sum(v in e for e in edges) for v in range(n))
        if edges:
            assert ore_degree(g) == max(g.degrees[u] + g.degrees[v] for u, v in edges)
        assert g.has_triangle() == any(
            {(a, b), (a, c), (b, c)} <= edges
            for a, b, c in itertools.combinations(range(n), 3))


def test_induced_matches_the_pair_loop():
    rnd = random.Random(12)
    for n, pairs in _pair_lists():
        g = Graph(n, pairs)
        subsets = range(1 << n) if n <= 6 else [rnd.getrandbits(n) for _ in range(20)]
        for mask in subsets:
            vs = [v for v in range(n) if mask >> v & 1]
            pos = {v: i for i, v in enumerate(vs)}
            h = g.induced(reversed(vs))
            assert h.n == len(vs)
            assert h.edges == {(pos[u], pos[v]) for u, v in _normalized(pairs)
                               if u in pos and v in pos}


def test_equality_and_hash_follow_the_edge_set():
    rnd = random.Random(13)
    built = [(n, _normalized(pairs), Graph(n, pairs)) for n, pairs in _pair_lists()]
    for n, edges, g in built:
        shuffled = [(v, u) for u, v in edges] + list(edges)
        rnd.shuffle(shuffled)
        twin = Graph(n, shuffled)
        assert twin == g and hash(twin) == hash(g)
    for (n1, e1, g1), (n2, e2, g2) in itertools.combinations(built, 2):
        assert (g1 == g2) == (n1 == n2 and e1 == e2)
    assert Graph(3) != Graph(4) and Graph(2, [(0, 1)]) != "Graph(2)"


def test_construction_errors_are_unchanged():
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        Graph(3, [(0, 1), (0, 3), (2, 2)])
    with pytest.raises(ValueError, match=r"^edge \(-1,0\) out of range for n=3$"):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph(3, [(0, 1), (2, 2), (0, 3)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)


def test_a_graph_stores_rows_not_pairs():
    # An n = 7 graph keeps 7 rows, 7 degrees and a hash: about 300 bytes.
    # A stored edge set (one frozenset and a tuple per edge) took 1,593.
    import tracemalloc

    keys = [canonical_key(g) for g in enumerate_graphs(7)]
    built = [None] * len(keys)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, key in enumerate(keys):
            built[i] = graphs._from_key(key)
        per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(keys)
    finally:
        tracemalloc.stop()
    assert per_graph < 600
    assert "edges" not in Graph.__slots__
