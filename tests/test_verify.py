import itertools
import random
import signal

import pytest

from kernelpaint import (
    Graph,
    PaintabilitySolver,
    chromatic_number,
    enumerate_graphs,
    is_f_choosable,
    is_k_critical,
    is_online_f_choosable,
    make_kernel_painter,
    make_named,
    play_paint_game,
)
from kernelpaint.bits import bits
from kernelpaint.errors import SizeLimitError
from kernelpaint.graphs import clique_number
from kernelpaint.orient import Digraph
from kernelpaint.verify import _list_colourable, greedy_painter


# -- offline choosability -----------------------------------------------------


def test_choosable_examples(c4, c5):
    res = is_f_choosable(make_named("complete", [2]), [1, 1])
    assert not res and res.bad_assignment is not None
    assert is_f_choosable(c4, [2] * 4)
    # the returned lists genuinely defeat every coloring, also where a
    # pendant path of two-colour vertices is left out of the search
    pendant = Graph(7, list(c5.edges) + [(0, 5), (5, 6)])
    for g in (c5, pendant):
        res = is_f_choosable(g, [2] * g.n)
        assert not res
        lists = res.bad_assignment
        assert set(lists) == set(range(g.n))
        assert all(len(lists[v]) == 2 for v in range(g.n))
        ok = False
        for combo in itertools.product(*[sorted(lists[v]) for v in range(g.n)]):
            if all(combo[u] != combo[v] for u, v in g.edges):
                ok = True
        assert not ok


def test_list_colourable_matches_every_choice():
    # arbitrary colour masks, not only {0..k-1}, and orders that leave
    # vertices out: those are ignored, as is_f_choosable's prefixes need
    rng = random.Random(26)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for _ in range(4):
                lists = [rng.randrange(1 << 5) for _ in range(n)]
                order = rng.sample(range(n), rng.randint(0, n))
                edges = [(u, v) for u, v in g.edges if u in order and v in order]
                literal = any(
                    all(colour[order.index(u)] != colour[order.index(v)]
                        for u, v in edges)
                    for colour in itertools.product(*(bits(lists[v]) for v in order)))
                assert _list_colourable(g.adj, order, lists) == literal


def test_choosable_caps():
    with pytest.raises(SizeLimitError):
        is_f_choosable(Graph(9), [1] * 9)
    with pytest.raises(SizeLimitError):
        is_f_choosable(make_named("complete", [6]), [4] * 6)


# -- online choosability ------------------------------------------------------


def test_online_examples(c4, c5):
    k2 = make_named("complete", [2])
    assert not is_online_f_choosable(k2, [1, 1])
    assert is_online_f_choosable(k2, [1, 2])
    assert is_online_f_choosable(c4, [2] * 4)
    assert not is_online_f_choosable(c5, [2] * 5)
    for g in [c4, c5, make_named("complete", [4])]:
        assert is_online_f_choosable(g, [d + 1 for d in g.degrees])


def test_online_caps(c5):
    with pytest.raises(SizeLimitError):
        is_online_f_choosable(Graph(8), [1] * 8)
    with pytest.raises(SizeLimitError):
        is_online_f_choosable(c5, [8] * 5)


def test_online_implies_offline_small():
    # exhaustive over all graphs and budget tables up to n = 4
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for f in itertools.product(*[range(1, d + 2) for d in g.degrees]):
                if is_online_f_choosable(g, list(f)):
                    assert is_f_choosable(g, list(f))


def test_online_implies_offline_sampled():
    rng = random.Random(23)
    graphs = [g for g in enumerate_graphs(6) if g.m >= 4]
    for _ in range(30):
        g = graphs[rng.randrange(len(graphs))]
        f = [rng.randint(1, d + 1) for d in g.degrees]
        if sum(f) > 20:
            continue
        if is_online_f_choosable(g, f):
            assert is_f_choosable(g, f)


def test_online_monotone_in_budgets():
    rng = random.Random(4)
    graphs = list(enumerate_graphs(6, connected_only=True))
    for _ in range(40):
        g = graphs[rng.randrange(len(graphs))]
        f = [rng.randint(1, d + 1) for d in g.degrees]
        if is_online_f_choosable(g, f):
            bigger = [min(v + rng.randint(0, 1), 7) for v in f]
            assert is_online_f_choosable(g, bigger)


def test_online_brooks_cubic_no_k4():
    # connected, max degree 3, no K4: online 3-choosable (checked to n = 7)
    for n in range(2, 8):
        for g in enumerate_graphs(n, connected_only=True):
            if max(g.degrees) != 3 or clique_number(g) >= 4:
                continue
            assert is_online_f_choosable(g, [3] * g.n)


def test_solver_subgraph_queries_share_memo(c5):
    solver = PaintabilitySolver(c5)
    assert solver.wins([0, 1, 2], {0: 1, 1: 2, 2: 2})  # a path inside C5
    assert not solver.wins(c5.full_mask(), [2] * 5)


def test_solver_rejects_vertices_outside_the_host_graph(c5):
    # the members of a negative mask never run out, so a timer bounds the
    # test should the check go missing
    def hung(signum, frame):
        raise TimeoutError("wins did not return")

    old = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        solver = PaintabilitySolver(c5)
        for vertices, f in ((-1, [1] * 5), ([9], {9: 1}), (1 << 5, [1] * 6), ([-1], {-1: 1})):
            with pytest.raises(ValueError):
                solver.wins(vertices, f)
        assert solver.wins([0, 1], [2, 2])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# -- the painting game --------------------------------------------------------


def test_game_k2_lister_wins():
    k2 = make_named("complete", [2])
    out = play_paint_game(k2, [1, 1], painter=greedy_painter)
    assert out.winner == "lister"
    assert out.transcript[0].listed == (0, 1)


def test_game_greedy_painter_wins_with_slack(c4):
    # a budget above the degree outlasts every line: a vertex pays only when
    # greedy paints a neighbor, which then leaves
    out = play_paint_game(c4, [3, 3, 3, 3], painter=greedy_painter)
    assert out.winner == "painter" and out.transcript == ()
    assert out.states_explored > 1


def test_game_exhaustive_traversal(c5):
    # C5 is not 2-paintable, so every painter loses some line, and the line
    # that comes back ends with a remaining vertex out of tokens
    assert not is_online_f_choosable(c5, [2] * 5)
    out = play_paint_game(c5, [2] * 5, painter=greedy_painter)
    assert out.winner == "lister"
    assert out.transcript and 0 in out.transcript[-1].budgets.values()


def test_kernel_painter_wins_on_c4(c4):
    from kernelpaint import extract_reducible

    d = extract_reducible(c4, c4.degrees, [0, 2]).digraph
    out = play_paint_game(c4, [2] * 4, painter=make_kernel_painter(d))
    assert out.winner == "painter" and out.transcript == ()


def test_exhaustive_game_checks_every_painter_answer(c4):
    from kernelpaint import extract_reducible

    kernel = make_kernel_painter(extract_reducible(c4, c4.degrees, [0, 2]).digraph)
    first = []

    def stale(g, smask):
        # the first answer, already checked, given again for an S that misses it
        first.append(kernel(g, smask))
        return first[0] if first[0] & ~smask else first[-1]

    def dependent(g, smask):
        return smask if smask == 0b0011 else kernel(g, smask)

    for painter, message in ((stale, "subset of S"), (dependent, "independent")):
        with pytest.raises(ValueError, match=message):
            play_paint_game(c4, [2] * 4, painter=painter)


def test_kernel_painter_answers_smallest_kernel_on_every_set():
    from kernelpaint import extract_reducible
    from test_orient import _first_kernel_by_definition

    g = make_named("moser_spindle")
    cert = extract_reducible(g, g.degrees)
    d = cert.digraph.relabel({v: 2 * v + 3 for v in cert.h_vertices})  # non-contiguous
    verts = sorted(d.vertex_set)
    assert verts != list(range(len(verts)))
    painter = make_kernel_painter(d)
    arcs = set(d.arcs)
    for r in range(len(verts) + 1):
        for s in itertools.combinations(verts, r):
            smask = sum(1 << v for v in s)
            kernel = _first_kernel_by_definition(arcs, frozenset(s))
            assert painter(None, smask) == sum(1 << v for v in kernel)


def test_kernel_painter_raises_on_every_kernel_free_set():
    painter = make_kernel_painter(Digraph(range(3), [(0, 1), (1, 2), (2, 0)]))
    assert painter(None, 0b011) == 0b010
    for _ in range(2):  # a failure is never remembered as an answer
        with pytest.raises(ValueError, match="not kernel-perfect on S"):
            painter(None, 0b111)


def test_kernel_painter_is_capped_like_the_kernel_perfection_check():
    make_kernel_painter(Digraph(range(10)))
    with pytest.raises(SizeLimitError):
        make_kernel_painter(Digraph(range(11)))


def test_kernel_painter_rejects_bad_digraph(c4):
    painter = make_kernel_painter(Digraph(range(4), [(0, 1), (1, 0)]))
    # digraph misses edges of C4, so painted sets can collide with real edges
    with pytest.raises(ValueError):
        play_paint_game(c4, [2] * 4, painter=painter)


def test_game_takes_strategies_as_callables_only(c4):
    # greedy_painter is the default; a strategy name is refused, not looked up
    assert play_paint_game(c4, [2] * 4) == play_paint_game(
        c4, [2] * 4, painter=greedy_painter)
    for painter in ("greedy", "optimal", None):
        with pytest.raises(ValueError, match="painter must be"):
            play_paint_game(c4, [2] * 4, painter=painter)
    # Lister is every line, never a strategy of its own
    with pytest.raises(TypeError):
        play_paint_game(c4, [2] * 4, lister="exhaustive")


# -- chromatic numbers --------------------------------------------------------


def test_chromatic_examples(c5, k4):
    assert chromatic_number(k4) == 4 and is_k_critical(k4, 4)
    assert chromatic_number(c5) == 3 and is_k_critical(c5, 3)
    ms = make_named("moser_spindle")
    assert ms.n == 7 and ms.m == 11
    assert chromatic_number(ms) == 4
    assert is_k_critical(ms, 4)
    assert ms.m == -(-(5 * ms.n - 2) // 3)


def test_chromatic_agrees_with_greedy_bounds():
    for g in enumerate_graphs(6):
        chi = chromatic_number(g)
        assert chi >= clique_number(g)
        assert chi <= max(g.degrees) + 1
        if g.m == 0:
            assert chi <= 1


def _k_colourable_by_definition(g: Graph, k: int) -> bool:
    return any(all(c[u] != c[v] for u, v in g.edges)
               for c in itertools.product(range(k), repeat=g.n))


def _chi_by_definition(g: Graph) -> int:
    return next(k for k in range(g.n + 1) if _k_colourable_by_definition(g, k))


def test_chromatic_and_criticality_match_definition():
    for n in range(7):
        for g in enumerate_graphs(n) if n else [Graph(0)]:
            chi = _chi_by_definition(g)
            assert chromatic_number(g) == chi, g.edges
            drops = all(_chi_by_definition(g.induced([u for u in range(n) if u != v])) < chi
                        for v in range(n))
            for k in range(n + 2):
                assert is_k_critical(g, k) == (k == chi and drops), (g.edges, k)


def test_groetzsch_graph_is_4_critical():
    # the Mycielskian of C5: triangle-free, chi = 4, and 4-critical
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    g = Graph(11, cycle + shadows + [(5 + i, 10) for i in range(5)])
    assert not g.has_triangle() and g.m == 20
    assert chromatic_number(g) == 4
    assert is_k_critical(g, 4) and not is_k_critical(g, 3)
    assert not is_k_critical(Graph(12, g.edges), 4)  # an isolated vertex


def test_chromatic_cap():
    with pytest.raises(SizeLimitError):
        chromatic_number(Graph(13))
