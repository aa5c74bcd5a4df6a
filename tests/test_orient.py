import itertools

import pytest

from kernelpaint import (
    Digraph,
    Graph,
    alon_tarsi_diff,
    digraph_to_dot,
    enumerate_graphs,
    extend_d0_kp,
    extract_reducible,
    f_KP_witnesses,
    is_f_AT,
    is_f_KP,
    is_kernel_perfect,
    make_named,
    orient_with_indegrees,
)
from kernelpaint.bits import bits, mask_of
from kernelpaint.errors import SizeLimitError
from kernelpaint.graphs import cut_size
from kernelpaint.orient import (
    _build_kp_masked,
    _clique_refutes,
    _kernel_cover,
    _kernel_table,
    _smallest_kernel,
)


# -- digraph basics -----------------------------------------------------------


def test_digraph_rejects_self_arcs_and_strays():
    with pytest.raises(ValueError):
        Digraph(range(3), [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(range(2), [(0, 5)])
    with pytest.raises(ValueError, match=r"arc \(5,3\) listed twice"):
        Digraph([3, 5], [(5, 3), (3, 5), (5, 3)])


def test_digraph_degrees_and_doubling():
    d = Digraph(range(3), [(0, 1), (1, 0), (1, 2)])
    assert d.out_degree(1) == 2 and d.in_degree(0) == 1
    assert d.doubled_pairs() == {(0, 1)}
    assert d.underlying_edges() == {(0, 1), (1, 2)}
    assert digraph_to_dot(d).count("->") == 3


def _labelled_digraphs(count, seed):
    """Seeded random digraphs on n <= 8 vertices, each pair carrying no arc,
    one arc either way or a doubled pair, with labels 0..n-1 and again with
    labels 2v + 3."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        weights = [rng.random() for _ in range(4)]  # none, forward, back, doubled
        arcs = []
        for u, v in itertools.combinations(range(n), 2):
            pick = rng.choices(range(4), weights)[0]
            if pick in (1, 3):
                arcs.append((u, v))
            if pick in (2, 3):
                arcs.append((v, u))
        rng.shuffle(arcs)
        yield list(range(n)), arcs
        yield [2 * v + 3 for v in range(n)], [(2 * t + 3, 2 * h + 3) for t, h in arcs]


def test_digraph_rows_and_arcs_agree():
    """The rows are the arcs: rebuilding from the derived arcs gives the same
    digraph, the arcs come sorted, every row bit is an arc and every arc a
    bit of an out-row and an in-row, and rows over labels give the digraph
    the arcs give."""
    for verts, arcs in _labelled_digraphs(300, seed=28):
        d = Digraph(verts, arcs)
        assert d.verts == tuple(verts)
        assert Digraph(d.verts, d.arcs) == d
        assert list(d.arcs) == sorted(arcs)
        out_bits = {(verts[i], verts[j]) for i, row in enumerate(d.out) for j in bits(row)}
        in_bits = {(verts[j], verts[i]) for i, row in enumerate(d.into) for j in bits(row)}
        assert out_bits == in_bits == set(arcs)
        assert d.und == [o | i for o, i in zip(d.out, d.into)]
        assert all(d.out_degree(v) == sum(t == v for t, _ in arcs)
                   and d.in_degree(v) == sum(h == v for _, h in arcs) for v in verts)
        label_rows = [0] * (max(verts, default=-1) + 1)
        for t, h in arcs:
            label_rows[t] |= 1 << h
        assert Digraph._from_rows(verts, label_rows) == d


# -- in-degree constrained orientations ---------------------------------------


def test_orient_examples(c4):
    res = orient_with_indegrees(c4, [1, 1, 1, 1])
    assert res.ok and all(res.orientation.in_degree(v) >= 1 for v in range(4))
    res = orient_with_indegrees(make_named("complete", [3]), [2, 2, 2])
    assert not res.ok and res.violating_set == {0, 1, 2} and res.deficiency == 3
    star = make_named("complete_bipartite", [1, 3])
    res = orient_with_indegrees(star, {0: 3, 1: 0, 2: 0, 3: 0})
    assert res.ok and res.orientation.in_degree(0) == 3


def _check_against_every_subset(g, dem):
    """orient_with_indegrees(g, dem) against the deficiency of every vertex
    set X: its demand minus the edges meeting it."""
    res = orient_with_indegrees(g, dem)
    deficiency = {}
    for k in range(g.n + 1):
        for x in map(frozenset, itertools.combinations(range(g.n), k)):
            inside = cut_size(g, x, x) // 2
            crossing = cut_size(g, x, set(range(g.n)) - x)
            deficiency[x] = sum(dem[v] for v in x) - inside - crossing
    top = max(deficiency.values())
    assert res.ok == (top <= 0)  # Hakimi's theorem
    if res.ok:
        d = res.orientation
        assert len(d.arcs) == g.m and d.underlying_edges() == g.edges
        assert all(d.in_degree(v) >= dem[v] for v in range(g.n))
    else:
        # the largest set of maximum deficiency: the union of all of them
        assert res.deficiency == top
        assert res.violating_set == frozenset().union(
            *(x for x, k in deficiency.items() if k == top))
    return res


def test_orient_agrees_with_brute_force_n4():
    for g in enumerate_graphs(4):
        edges = sorted(g.edges)
        for dem in itertools.product(*[range(d + 1) for d in g.degrees]):
            res = _check_against_every_subset(g, dem)
            brute = False
            for pick in range(1 << len(edges)):
                indeg = [0] * g.n
                for i, (u, v) in enumerate(edges):
                    indeg[v if pick >> i & 1 else u] += 1
                if all(indeg[v] >= dem[v] for v in range(g.n)):
                    brute = True
                    break
            assert res.ok == brute
    import random

    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        p = rng.random()
        g = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                      if rng.random() < p])
        _check_against_every_subset(g, [rng.randint(0, d + 1) for d in g.degrees])


def test_degree_tables_reject_non_integers(c4):
    p2 = make_named("path", [2])
    for bad in ([0.5, 1], [True, 1], ["1", 1], [None, 1]):
        with pytest.raises(ValueError, match=r"f\(0\): .* is not an integer"):
            orient_with_indegrees(p2, bad)
    assert orient_with_indegrees(p2, [1.0, 0]).ok  # an integral float is an integer
    with pytest.raises(ValueError, match="not an integer"):
        is_f_AT(c4, [2, 2, 2, 2.5])
    with pytest.raises(ValueError, match="not an integer"):
        extract_reducible(c4, {0: 1, 1: 2, 2: 2, 3: 0.5}, [0])


def test_orient_rejects_negative_demand(c4):
    with pytest.raises(ValueError):
        orient_with_indegrees(c4, [-1, 0, 0, 0])


# -- kernel-perfect construction ----------------------------------------------


def _build(g, a, f):
    """The composite construction on all of g, A given as a vertex list:
    (digraph, None), or (None, violating set)."""
    return _build_kp_masked(g, g.full_mask(), mask_of(a), f)


def test_build_kernel_perfect_c4(c4):
    d, x = _build(c4, [0, 2], c4.degrees)
    assert d is not None and x is None
    assert all(d.out_degree(v) == 1 for v in range(4))
    assert is_kernel_perfect(d)


def test_build_kernel_perfect_single_vertex():
    d, _ = _build(Graph(1), [0], {0: 1})
    assert d.arcs == ()


def test_build_kernel_perfect_c5_always_fails(c5):
    for k in (1, 2):
        for a in itertools.combinations(range(5), k):
            if any(c5.has_edge(u, v) for u, v in itertools.combinations(a, 2)):
                continue
            d, x = _build(c5, a, c5.degrees)
            assert d is None and x


def test_build_kernel_perfect_validates_inputs(c4):
    # extraction checks A and f before it builds
    with pytest.raises(ValueError, match="independent"):
        extract_reducible(c4, c4.degrees, [0, 1])
    with pytest.raises(ValueError, match="outside"):
        extract_reducible(c4, {0: 9, 1: 2, 2: 2, 3: 2}, [0])
    with pytest.raises(ValueError, match="outside"):
        extract_reducible(c4, c4.degrees, [-1])
    with pytest.raises(ValueError, match="no value for vertex 2"):
        extract_reducible(c4, [2, 2], [0, 2])


def test_build_kernel_perfect_doubles_outside_a():
    bow = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    d, _ = _build(bow, [], [k + 1 for k in bow.degrees])
    assert d.doubled_pairs() == bow.edges
    assert is_kernel_perfect(d)


# -- kernels ------------------------------------------------------------------


def _kernel_of(d):
    """The smallest kernel of all of d, as labels, by ``_smallest_kernel``."""
    kernel = _smallest_kernel(d.und, d.out, (1 << d.n) - 1)
    return None if kernel is None else frozenset(d.verts[i] for i in bits(kernel))


def test_smallest_kernel_examples():
    # composite shape on K4-e: doubled 0<->1, single arcs 0->2, 3->0, 2->1, 1->3
    d = Digraph(range(4), [(0, 1), (1, 0), (0, 2), (3, 0), (2, 1), (1, 3)])
    assert _kernel_of(d) == {2, 3}
    assert _kernel_of(Digraph(range(3))) == {0, 1, 2}
    assert _kernel_of(Digraph(range(3), [(0, 1), (1, 2), (2, 0)])) is None


def test_composite_digraphs_are_kernel_perfect_and_have_kernels():
    def confirm_kernel(g, d, kernel):
        out = {t: set() for t in range(g.n)}
        for t, h in d.arcs:
            out[t].add(h)
        assert all(not g.has_edge(u, v) for u in kernel for v in kernel if u < v)
        assert all(out[v] & kernel for v in range(g.n) if v not in kernel)

    built = 0
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            for k in (1, 2):
                for a in itertools.combinations(range(g.n), k):
                    if any(g.has_edge(u, v) for u, v in itertools.combinations(a, 2)):
                        continue
                    for f in ([d + 1 for d in g.degrees], list(g.degrees)):
                        d, _ = _build(g, a, f)
                        if d is None:
                            continue
                        built += 1
                        assert is_kernel_perfect(d)
                        kernel = _kernel_of(d)
                        assert kernel is not None
                        confirm_kernel(g, d, kernel)
    assert built > 1000


def test_is_kernel_perfect_examples():
    assert not is_kernel_perfect(Digraph(range(3), [(0, 1), (1, 2), (2, 0)]))
    assert is_kernel_perfect(Digraph(range(4)))
    with pytest.raises(SizeLimitError):
        is_kernel_perfect(Digraph(range(11)))


def test_is_kernel_perfect_at_its_cap():
    complete = Digraph(range(10), itertools.permutations(range(10), 2))
    assert is_kernel_perfect(complete)
    check = is_kernel_perfect(Digraph(range(10), [(0, 1), (1, 2), (2, 0)]))
    assert not check and check.offending == {0, 1, 2}


def _subsets_in_mask_order(verts):
    subsets = [frozenset(c) for r in range(len(verts) + 1)
               for c in itertools.combinations(verts, r)]
    return sorted(subsets, key=lambda s: sum(1 << v for v in s))


def _first_kernel_by_definition(arcs, sub):
    """Smallest kernel of D[sub] in mask order: an independent set that every
    other vertex of sub has an out-arc into."""
    for k in _subsets_in_mask_order(sorted(sub)):
        if (all((u, v) not in arcs for u in k for v in k)
                and all(any((v, w) in arcs for w in k) for v in sub - k)):
            return k
    return None


def _random_digraphs(count):
    """Seeded random digraphs on n <= 7 vertices, labels drawn from 0..11."""
    import random

    rng = random.Random(11)
    for _ in range(count):
        n = rng.randint(0, 7)
        verts = sorted(rng.sample(range(12), n))  # non-contiguous labels
        p = rng.random()
        arcs = {(t, h) for t in verts for h in verts if t != h and rng.random() < p}
        yield verts, arcs


def test_kernel_search_matches_definition_on_random_digraphs():
    for verts, arcs in _random_digraphs(300):
        d = Digraph(verts, arcs)
        assert _kernel_of(d) == _first_kernel_by_definition(arcs, frozenset(verts))
        offending = next((s for s in _subsets_in_mask_order(verts)
                          if s and _first_kernel_by_definition(arcs, s) is None), None)
        check = is_kernel_perfect(d)
        assert check.offending == offending
        assert bool(check) == (offending is None)


def test_kernel_table_matches_definition_on_random_digraphs():
    for verts, arcs in _random_digraphs(300):
        d = Digraph(verts, arcs)
        table = _kernel_table(d.und, d.into)
        assert len(table) == 1 << len(verts)
        for sub, kernel in enumerate(table):
            s = frozenset(verts[i] for i in bits(sub))
            got = None if kernel is None else frozenset(verts[i] for i in bits(kernel))
            assert got == _first_kernel_by_definition(arcs, s)


def _mixed_digraphs(count, max_n, seed):
    """Seeded random digraphs whose vertex pairs carry no arc, one arc either
    way, or a doubled pair; labels are sparse, drawn from 0..2 * max_n."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        verts = sorted(rng.sample(range(2 * max_n + 1), n))
        weights = [rng.random() for _ in range(4)]  # none, forward, back, doubled
        arcs = set()
        for u, v in itertools.combinations(verts, 2):
            pick = rng.choices(range(4), weights)[0]
            if pick in (1, 3):
                arcs.add((u, v))
            if pick in (2, 3):
                arcs.add((v, u))
        yield verts, arcs


def test_kernel_cover_agrees_with_the_kernel_table():
    """The cover sets exactly the bits of the subsets the table gives a
    kernel, and is_kernel_perfect names the table's first kernel-free set.
    The two read one sweep, so the table is held to the one-set search."""
    failing = 0
    for verts, arcs in _mixed_digraphs(2000, 8, seed=20):
        d = Digraph(verts, arcs)
        und = d.und
        table = _kernel_table(und, d.into)
        assert table == [_smallest_kernel(und, d.out, s) for s in range(len(table))]
        cover = _kernel_cover(und, d.into)
        assert cover == sum(1 << s for s, k in enumerate(table) if k is not None)
        check = is_kernel_perfect(d)
        assert bool(check) == (None not in table)
        if not check:
            failing += 1
            first = table.index(None)
            assert check.offending == frozenset(verts[i] for i in bits(first))
    assert failing >= 100  # the sample holds many digraphs that are not kernel-perfect


def _has_kernel_by_definition(arcs, sub):
    """Some subset of sub is independent and absorbs every other vertex of sub."""
    return any(
        all((u, v) not in arcs for u in k for v in k)
        and all(any((v, w) in arcs for w in k) for v in sub - set(k))
        for r in range(len(sub) + 1)
        for k in itertools.combinations(sorted(sub), r)
    )


def test_kernel_cover_matches_definition_n5():
    """Bit S of the cover is set iff D[S] has a kernel, by brute force over
    every S and every candidate kernel, for n <= 5."""
    seen = set()
    for verts, arcs in _mixed_digraphs(400, 5, seed=21):
        d = Digraph(verts, arcs)
        cover = _kernel_cover(d.und, d.into)
        for sub in range(1 << len(verts)):
            s = {verts[i] for i in bits(sub)}
            assert (cover >> sub & 1) == _has_kernel_by_definition(arcs, s)
        perfect = cover == (1 << (1 << len(verts))) - 1
        assert bool(is_kernel_perfect(d)) == perfect
        seen.add(perfect)
    assert seen == {True, False}


# -- Alon-Tarsi counting ------------------------------------------------------


def test_alon_tarsi_examples():
    acyclic = Digraph(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert alon_tarsi_diff(acyclic) == type(alon_tarsi_diff(acyclic))(1, 1, 0)
    tri = Digraph(range(3), [(0, 1), (1, 2), (2, 0)])
    c = alon_tarsi_diff(tri)
    assert (c.even, c.odd, c.diff) == (1, 1, 0)
    c4 = Digraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = alon_tarsi_diff(c4)
    assert (c.even, c.odd, c.diff) == (2, 0, 2)


def test_alon_tarsi_brute_force_agreement():
    import random

    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        arcs = []
        for u, v in itertools.combinations(range(n), 2):
            r = rng.random()
            if r < 0.3:
                arcs.append((u, v))
            elif r < 0.5:
                arcs.append((v, u))
            elif r < 0.6:
                arcs += [(u, v), (v, u)]
        d = Digraph(range(n), arcs)
        even = odd = 0
        for pick in range(1 << len(arcs)):
            bal = [0] * n
            size = 0
            for i, (t, h) in enumerate(d.arcs):
                if pick >> i & 1:
                    bal[t] += 1
                    bal[h] -= 1
                    size += 1
            if all(b == 0 for b in bal):
                if size % 2:
                    odd += 1
                else:
                    even += 1
        c = alon_tarsi_diff(d)
        assert (c.even, c.odd) == (even, odd)
        assert c.even >= 1


def test_alon_tarsi_arc_cap():
    arcs = [(u, v) for u, v in itertools.combinations(range(8), 2)]  # 28 arcs
    with pytest.raises(SizeLimitError):
        alon_tarsi_diff(Digraph(range(8), arcs))


# -- f-AT ----------------------------------------------------------------------


def test_is_f_at_examples(c4, c5):
    dec = is_f_AT(c4, [2] * 4)
    assert dec and dec.counts.diff != 0
    assert all(dec.witness.out_degree(v) <= 1 for v in range(4))
    assert not is_f_AT(c5, [2] * 5)
    p4 = make_named("path", [4])
    assert not is_f_AT(p4, p4.degrees)  # Gallai tree under its own degrees
    with pytest.raises(SizeLimitError):
        is_f_AT(make_named("complete", [6]), [6] * 6)


def _f_at_by_definition(g, f):
    """The first orientation of g, edges in sorted order and u -> v tried
    before v -> u, with d+(v) <= f(v) - 1 and a nonzero Alon-Tarsi
    difference, with its counts; None when there is none."""
    edges = sorted(g.edges)
    out = [0] * g.n
    arcs = []

    def go(i):
        if i == len(edges):
            d = Digraph(range(g.n), arcs)
            counts = alon_tarsi_diff(d)
            return (d, counts) if counts.diff else None
        for t, h in (edges[i], edges[i][::-1]):
            if out[t] < f[t] - 1:
                out[t] += 1
                arcs.append((t, h))
                found = go(i + 1)
                out[t] -= 1
                arcs.pop()
                if found:
                    return found
        return None

    return go(0) if all(x >= 1 for x in f) else None


def test_is_f_at_matches_definition_n6():
    """The graph polynomial decides as the orientation search with
    alon_tarsi_diff at every leaf does, and gives its witness and counts:
    every graph with n <= 6 and at most 12 edges, at f = d and two seeded
    tables with 1 <= f <= d + 1."""
    import random

    rng = random.Random(24)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n) if g.m <= 12]
    assert len(graphs) == 204
    verdicts = set()
    for g in graphs:
        tables = [list(g.degrees)] + [[rng.randint(1, d + 1) for d in g.degrees]
                                      for _ in range(2)]
        for f in tables:
            dec = is_f_AT(g, f)
            ref = _f_at_by_definition(g, f)
            verdicts.add(bool(dec))
            assert bool(dec) == (ref is not None)
            if ref is None:
                assert dec.witness is None and dec.counts is None
            else:
                assert (dec.witness.arcs, dec.counts) == (ref[0].arcs, ref[1])
    assert verdicts == {True, False}


# -- f-KP ----------------------------------------------------------------------


def test_is_f_kp_examples(k4e):
    dec = is_f_KP(k4e, k4e.degrees)
    assert dec and dec.witness.doubled_pairs() == {(0, 1)}
    assert not is_f_KP(k4e, k4e.degrees, allow_supergraph=False)
    assert is_f_KP(Graph(1), {0: 1})
    assert not is_f_KP(make_named("cycle", [5]), [2] * 5)
    with pytest.raises(SizeLimitError):
        is_f_KP(make_named("cycle", [6]), [2] * 6)


def test_is_f_kp_witness_meets_bounds(k4e):
    dec = is_f_KP(k4e, k4e.degrees)
    w = dec.witness
    assert is_kernel_perfect(w)
    assert all(w.out_degree(v) + 1 <= k4e.degrees[v] for v in range(4))
    assert k4e.edges <= w.underlying_edges()


def test_f_kp_witnesses_on_k4_minus_e(k4e):
    witnesses = list(f_KP_witnesses(k4e, k4e.degrees))
    assert len(witnesses) == 2
    assert all(w.doubled_pairs() == {(0, 1)} for w in witnesses)
    assert is_f_KP(k4e, k4e.degrees).witness == witnesses[0]
    assert list(f_KP_witnesses(k4e, k4e.degrees, allow_supergraph=False)) == []


def _f_kp_by_definition(g, f, allow_supergraph):
    """Arc sets of every kernel-perfect oriented supergraph of g with
    d+(v) <= f(v) - 1: pairs in sorted order, the out-degree bound checked as
    each arc is placed, and is_kernel_perfect at every leaf."""
    pairs = sorted(itertools.combinations(range(g.n), 2))
    found = set()
    out = [0] * g.n
    arcs = []

    def go(i):
        if i == len(pairs):
            d = Digraph(range(g.n), arcs)
            if is_kernel_perfect(d):
                found.add(d.arcs)
            return
        u, v = pairs[i]
        both = ((u, v), (v, u))
        if g.has_edge(u, v):
            opts = [((u, v),), ((v, u),)] + ([both] if allow_supergraph else [])
        else:
            opts = [(), ((u, v),), ((v, u),), both] if allow_supergraph else [()]
        for opt in opts:
            for t, _ in opt:
                out[t] += 1
            if all(out[t] <= f[t] - 1 for t, _ in opt):
                arcs.extend(opt)
                go(i + 1)
                del arcs[len(arcs) - len(opt):]
            for t, _ in opt:
                out[t] -= 1

    if all(x >= 1 for x in f):
        go(0)
    return found


@pytest.mark.parametrize("allow_supergraph", [True, False])
def test_f_kp_witnesses_match_definition_n5(allow_supergraph):
    import random

    rng = random.Random(8)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n, connected_only=False)]
    assert len(graphs) == 52
    for g in graphs:
        for f in (list(g.degrees), [rng.randint(1, d + 2) for d in g.degrees]):
            got = list(f_KP_witnesses(g, f, allow_supergraph))
            assert len({w.arcs for w in got}) == len(got)
            assert {w.arcs for w in got} == _f_kp_by_definition(g, f, allow_supergraph)
            for w in got:
                assert is_kernel_perfect(w)
                assert all(w.out_degree(v) <= f[v] - 1 for v in range(g.n))
                assert g.edges <= w.underlying_edges()
                if not allow_supergraph:
                    assert len(w.arcs) == g.m


def test_clique_bound_refutes_only_tables_without_witnesses():
    """Every table 1 <= f <= d + 1 on K3, K4 and K5 that the clique bound
    refutes has no witness by definition.  A strict witness is a supergraph
    witness too, so an empty supergraph list covers both modes."""
    for n in (3, 4, 5):
        g = make_named("complete", [n])
        refuted = 0
        for f in itertools.product(range(1, n + 1), repeat=n):
            if _clique_refutes(g.adj, [x - 1 for x in f]):
                refuted += 1
                assert list(f_KP_witnesses(g, f)) == []
                assert _f_kp_by_definition(g, f, True) == set()
        # the tables that pass are those with sorted f at least 1, 2, ..., n
        assert refuted == n ** n - (n + 1) ** (n - 1)


def test_clique_bound_on_a_seeded_sample_n5():
    """On seeded tables of every graph with n <= 5, the witnesses are the
    definition's, and the bound refutes tables of graphs that are not
    complete."""
    import random

    rng = random.Random(24)
    refuted_sparse = 0
    for g in (g for n in range(2, 6) for g in enumerate_graphs(n, connected_only=False)):
        for _ in range(3):
            f = [rng.randint(1, d + 1) for d in g.degrees]
            if _clique_refutes(g.adj, [x - 1 for x in f]):
                refuted_sparse += g.m < g.n * (g.n - 1) // 2
            for allow_supergraph in (True, False):
                got = {w.arcs for w in f_KP_witnesses(g, f, allow_supergraph)}
                assert got == _f_kp_by_definition(g, f, allow_supergraph)
    assert refuted_sparse >= 20


# -- witness extension ---------------------------------------------------------


def test_extend_d0_kp_pendant(k4e):
    g = Graph(5, list(k4e.edges) + [(0, 4)])
    w = is_f_KP(k4e, k4e.degrees).witness
    ext = extend_d0_kp(g, range(4), w)
    assert ext.vertex_set == frozenset(range(5))
    assert is_kernel_perfect(ext)
    assert ext.out_degree(4) == 0 and (0, 4) in ext.arcs
    assert all(ext.out_degree(v) < g.degrees[v] for v in range(5))


def test_extend_d0_kp_errors(k4e):
    w = is_f_KP(k4e, k4e.degrees).witness
    with pytest.raises(ValueError, match="nothing to extend"):
        extend_d0_kp(k4e, range(4), w)
    disconnected = Graph(6, list(k4e.edges) + [(4, 5)])
    with pytest.raises(ValueError, match="connected"):
        extend_d0_kp(disconnected, range(4), w)
