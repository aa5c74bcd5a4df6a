import itertools
import json
import random

import pytest

from kernelpaint import (
    Certificate,
    Graph,
    HypothesisNotMetError,
    PaintabilitySolver,
    check_mic_strength,
    cut_lemma_check,
    encode_graph6,
    enumerate_graphs,
    extract_reducible,
    is_gallai_tree,
    is_kernel_perfect,
    is_oc_reducible,
    make_named,
    mic,
    orient_with_indegrees,
)
from kernelpaint.bits import bits, mask_of
from kernelpaint.errors import SizeLimitError
from kernelpaint.orient import Digraph, _build_kp_masked
from kernelpaint.structure import is_gallai_forest
from kernelpaint.verify import _list_colourable


# -- extraction ----------------------------------------------------------------


def test_extract_single_vertex():
    cert = extract_reducible(Graph(1), {0: 1}, [0])
    assert cert.h_vertices == (0,) and cert.digraph.arcs == ()
    assert cert.f_h == {0: 1}


def test_extract_c4(c4):
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    assert cert.h_vertices == (0, 1, 2, 3)
    assert all(cert.digraph.out_degree(v) == 1 for v in range(4))
    assert is_kernel_perfect(cert.digraph)


def test_extract_c5_hypothesis_not_met(c5):
    with pytest.raises(HypothesisNotMetError):
        extract_reducible(c5, c5.degrees)


def test_extract_validates_inputs(c4):
    with pytest.raises(ValueError, match="independent"):
        extract_reducible(c4, c4.degrees, [0, 1])
    with pytest.raises(ValueError, match="outside"):
        extract_reducible(c4, [5, 2, 2, 2], [0, 2])
    with pytest.raises(ValueError, match="outside"):
        extract_reducible(c4, c4.degrees, [7])
    with pytest.raises(ValueError, match="outside"):
        extract_reducible(c4, c4.degrees, [-1])
    with pytest.raises(ValueError, match="no value for vertex 2"):
        extract_reducible(c4, [2, 2])


def test_extract_defaults_to_mic_witness():
    g = make_named("K4_minus_e")
    cert = extract_reducible(g, g.degrees)
    assert set(cert.h_vertices) <= set(range(4))
    assert all(
        cert.f_h[v] >= cert.digraph.out_degree(v) + 1 for v in cert.h_vertices
    )


def test_extract_on_c4_with_pendant():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    cert = extract_reducible(g, g.degrees)
    assert cert.h_vertices
    solver = PaintabilitySolver(g)
    assert solver.wins(cert.h_vertices, cert.f_h)


def test_certificates_confirmed_by_game_solver():
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            if is_gallai_tree(g):
                continue
            cert = extract_reducible(g, g.degrees)
            solver = PaintabilitySolver(g)
            assert solver.wins(cert.h_vertices, cert.f_h), g


def _extract_by_the_graph_route(g, f, a=None):
    """extract_reducible built from public parts: each round relabels H onto
    0..k-1 in sorted order, orients a bipartite Graph of H's edges meeting A
    with orient_with_indegrees, and lists the composite's arcs for
    Digraph(verts, arcs).  The relabeling keeps vertex order, so the path
    reversal takes the same steps as on H's rows."""
    a_set = frozenset(a) if a is not None else mic(g).witness
    if sum(g.degrees[v] for v in a_set) < sum(g.degrees[v] + 1 - f[v] for v in range(g.n)):
        raise HypothesisNotMetError("independent cover too small")
    mask = (1 << g.n) - 1
    while True:
        verts = bits(mask)
        pos = {v: i for i, v in enumerate(verts)}
        f_h = {v: f[v] + g.deg_in(v, mask) - g.degrees[v] for v in verts}
        bip = Graph(len(verts), [(pos[u], pos[w]) for u in verts if u in a_set
                                 for w in bits(g.adj[u] & mask)])
        dem = [max(0, g.deg_in(v, mask) + 1 - f_h[v]) for v in verts]
        res = orient_with_indegrees(bip, dem)
        if res.ok:
            arcs = [(verts[t], verts[h]) for t, h in res.orientation.arcs]
            rest = [v for v in verts if v not in a_set]
            arcs += [(u, w) for u in rest for w in rest if g.has_edge(u, w)]
            return Certificate(tuple(verts), Digraph(verts, arcs), f_h)
        mask &= ~mask_of(verts[i] for i in res.violating_set)


def _random_budget_and_cover(g, rng):
    """A random f <= d + 1, f >= 1, and a random maximal independent set A,
    the demands of f mostly fitting what A covers."""
    a = 0
    for v in rng.sample(range(g.n), g.n):
        if not g.adj[v] & (a | 1 << v):
            a |= 1 << v
    budget = sum(g.degrees[v] for v in bits(a)) + rng.choice((0, 0, 0, 1))
    short = [rng.randint(0, g.degrees[v]) for v in range(g.n)]
    while sum(short) > budget:
        short[rng.choice([v for v in range(g.n) if short[v]])] -= 1
    return [g.degrees[v] + 1 - short[v] for v in range(g.n)], bits(a)


def test_extraction_matches_the_graph_route():
    """The same Certificate, degrees included, on every connected class with
    n <= 7, with f = d and A the mic witness, and with seeded A and f."""
    rng = random.Random(22)
    compared = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            cases = [(g.degrees, None)]
            cases += [_random_budget_and_cover(g, rng) for _ in range(2)]
            for f, a in cases:
                try:
                    want = _extract_by_the_graph_route(g, f, a)
                except HypothesisNotMetError:
                    with pytest.raises(HypothesisNotMetError):
                        extract_reducible(g, f, a)
                    continue
                got = extract_reducible(g, f, a)
                assert got == want
                d, e = got.digraph, want.digraph
                for v in got.h_vertices:
                    assert (d.out_degree(v), d.in_degree(v)) == (e.out_degree(v), e.in_degree(v))
                compared += 1
    assert compared > 2000


def test_certificate_json_round_trip(c4):
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    back = Certificate.loads(cert.dumps())
    assert back == cert
    obj = json.loads(cert.dumps())
    assert set(obj) == {"vertices", "arcs", "f_h"}


# -- OC-reducibility -----------------------------------------------------------


def test_oc_examples(c4, c5, k4):
    assert is_oc_reducible(c5) is None
    assert is_oc_reducible(k4) is None
    got = is_oc_reducible(c4)
    assert got is not None and got[0] == (0, 1, 2, 3)
    with pytest.raises(SizeLimitError):
        is_oc_reducible(Graph(8))


def test_oc_pendant_graphs_are_irreducible():
    # a pendant vertex forces f_H(v) <= 0 on every proper candidate
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_oc_reducible(g) is None


def _f_h(g, members):
    """f_H(v) = delta(G) + d_H(v) - d_G(v), from the edge list."""
    delta = min(g.degrees)
    return {v: delta + sum(1 for u in members if g.has_edge(u, v)) - g.degrees[v]
            for v in members}


def literal_oc_scan(g):
    """is_oc_reducible by its definition: every candidate H in increasing
    size, lexicographic within a size, asked of a fresh solver, with no
    filter in front of it."""
    for size in range(1, g.n + 1):
        for members in itertools.combinations(range(g.n), size):
            f_h = _f_h(g, members)
            if PaintabilitySolver(g).wins(members, f_h):
                return members, f_h
    return None


def literal_colourable(g, members, f_h) -> bool:
    """Some choice of a colour in {1..f_H(v)} per member is proper."""
    edges = [(u, v) for u, v in itertools.combinations(members, 2) if g.has_edge(u, v)]
    for choice in itertools.product(*(range(1, f_h[v] + 1) for v in members)):
        colour = dict(zip(members, choice))
        if all(colour[u] != colour[v] for u, v in edges):
            return True
    return False


def _oc_corpus():
    """Every connected class on at most 6 vertices, then 200 seeded connected
    labelled graphs on 7."""
    for n in range(1, 7):
        yield from enumerate_graphs(n, connected_only=True)
    rng = random.Random(2017)
    pairs = list(itertools.combinations(range(7), 2))
    made = 0
    while made < 200:
        p = rng.uniform(0.3, 0.9)
        g = Graph(7, [e for e in pairs if rng.random() < p])
        if g.is_connected():
            made += 1
            yield g


def test_oc_scan_matches_the_definition():
    found = 0
    for g in _oc_corpus():
        got = is_oc_reducible(g)
        assert got == literal_oc_scan(g), encode_graph6(g)
        found += got is not None
    assert found > 20


def test_oc_refutation_is_the_colouring_test_and_sound():
    # a candidate whose lists {1..f_H(v)} admit no proper colouring is not
    # even f_H-choosable, so the solver must give it to Lister too; the
    # colourings are listed one by one only up to 6 vertices, where there are
    # few enough of them
    refuted = kept = 0
    for g in _oc_corpus():
        solver = PaintabilitySolver(g)
        for size in range(1, g.n + 1):
            for members in itertools.combinations(range(g.n), size):
                f_h = _f_h(g, members)
                if min(f_h.values()) < 1:
                    continue
                lists = {v: (1 << k) - 1 for v, k in f_h.items()}
                colourable = _list_colourable(g.adj, members, lists)
                if g.n <= 6:
                    assert colourable == literal_colourable(g, members, f_h)
                if colourable:
                    kept += 1
                else:
                    assert not solver.wins(members, f_h), (encode_graph6(g), members)
                    refuted += 1
    assert refuted > 5000 and kept > 500, (refuted, kept)


def test_a_one_token_vertex_peels_off_a_winning_game():
    # the reason the OC scan skips candidates with f_H(v) = 1: if Painter
    # wins on H, Painter wins on H - v with the neighbours of v one token
    # poorer (Lister opens with v and its neighbours)
    rng = random.Random(2017)
    winners = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        p = rng.uniform(0.3, 0.9)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        f = [rng.randint(1, g.degrees[v] + 1) for v in range(n)]
        v = rng.randrange(n)
        f[v] = 1
        solver = PaintabilitySolver(g)
        if solver.wins(g.full_mask(), f):
            rest = [u for u in range(n) if u != v]
            assert solver.wins(rest, {u: f[u] - g.has_edge(u, v) for u in rest}), (g.edges, f)
            winners += 1
    assert winners > 50, winners


def test_mic_strength_examples(c4, c5, k4):
    rec = check_mic_strength(c5)
    assert rec.irreducible and rec.mic_value == rec.bound == 4 and rec.holds
    rec = check_mic_strength(k4)
    assert rec.irreducible and rec.mic_value == rec.bound == 3 and rec.holds
    rec = check_mic_strength(c4)
    assert not rec.irreducible and rec.holds


def test_oc_irreducible_low_part_is_gallai_forest():
    # the min-degree part of an OC-irreducible graph is a Gallai forest
    for n in range(2, 8):
        for g in enumerate_graphs(n, connected_only=True):
            if is_oc_reducible(g) is not None:
                continue
            delta = min(g.degrees)
            low = [v for v in range(g.n) if g.degrees[v] == delta]
            assert is_gallai_forest(g.induced(low)), g


# -- cut lemma -----------------------------------------------------------------


def test_cut_lemma_examples(c4, k4):
    two_tri = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rec = cut_lemma_check(two_tri, [3] * 6, [0, 1, 2])
    assert rec.holds and rec.rest_choosable and rec.part_choosable
    assert rec.whole_choosable
    rec = cut_lemma_check(c4, [2] * 4, [0, 1])
    assert rec.holds
    rec = cut_lemma_check(k4, [3] * 4, [0, 1, 2])
    assert rec.holds and not rec.part_choosable  # vacuous: antecedent fails
    with pytest.raises(SizeLimitError):
        cut_lemma_check(Graph(7), [1] * 7, [0])


def test_cut_lemma_h_equals_g(c4):
    rec = cut_lemma_check(c4, [2] * 4, range(4))
    assert rec.holds


def test_edge_order_does_not_change_any_output():
    # Graph.edges is rebuilt from the rows, so it may iterate in another
    # order than the pairs came in; nothing downstream may depend on that.
    rnd = random.Random(14)
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
            rnd.shuffle(pairs)
            for h in (Graph(n, sorted(g.edges)), Graph(n, pairs)):
                assert encode_graph6(h) == encode_graph6(g)
                assert is_gallai_tree(h) == is_gallai_tree(g)
                a = mic(g).witness
                amask = mask_of(a)
                assert _build_kp_masked(h, h.full_mask(), amask, h.degrees) == (
                    _build_kp_masked(g, g.full_mask(), amask, g.degrees))
                if not is_gallai_tree(g):
                    assert extract_reducible(h, h.degrees).dumps() == extract_reducible(
                        g, g.degrees).dumps()
