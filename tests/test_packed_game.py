"""The packed game state at its edges, and the two game walkers against
each other.

Both game walkers, the solver and the walk of every Lister line against one
painter, carry a state as (remaining-vertex mask, packed budgets), one int
field per vertex.  These tests pin the packing where it can go wrong: the
solver's budget cap (4-bit fields), games whose budgets need wider fields,
empty and negative starting budgets, and the decoding of budgets for
transcripts.  The reference below is the exhaustive game walk by its
definition, with budgets as tuples, asking the painter every round; the
packed walk asks it once per listed set, and must agree with the reference
on winner, states explored, transcript and the round a painter error
surfaces at.  The walk and the solver must agree too: a painter that
survives every line proves Painter wins, and no painter survives a game the
solver gives to Lister.  The solver is held to the game's definition as
well: a minimax over every S and every independent I of S, with none of the
solver's cuts.
"""

import collections
import functools
import random

import pytest

from kernelpaint import (
    Digraph,
    Graph,
    enumerate_graphs,
    PaintabilitySolver,
    is_online_f_choosable,
    make_kernel_painter,
    make_named,
    play_paint_game,
)
from kernelpaint.errors import SizeLimitError
from kernelpaint.verify import (
    ONLINE_BUDGET_CAP,
    GameOutcome,
    GameRound,
    greedy_painter,
)


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if mask >> v & 1)


def _next_budgets(n, budgets, nmask, smask, imask) -> tuple[int, ...]:
    """Every vertex of S - I spends one token; painted vertices leave."""
    return tuple(
        (budgets[v] - (smask >> v & 1 and not imask >> v & 1)) if nmask >> v & 1 else 0
        for v in range(n)
    )


def _checked_answer(g, painter, smask) -> int:
    imask = painter(g, smask)
    if imask & ~smask:
        raise ValueError("painter's set must be a subset of S")
    if any(g.has_edge(u, v) for u in _members(imask, g.n) for v in _members(imask, g.n)):
        raise ValueError("painter's set must be independent")
    return imask


def tuple_state_walk(g: Graph, f, painter) -> GameOutcome:
    """Every Lister line against a fixed painter, states as (mask, tuple).

    A state is lost when a remaining vertex has no token; otherwise Lister
    tries every nonempty S in descending numeric order and the first line
    the painter loses is returned.  Each visited state is cached, so a state
    met again is not walked again."""
    n = g.n
    cache = {}
    explored = 0

    def survive(mask, budgets):
        nonlocal explored
        if not mask:
            return None
        if any(budgets[v] < 1 for v in _members(mask, n)):
            return []
        if (mask, budgets) in cache:
            return None if cache[mask, budgets] else []
        cache[mask, budgets] = True
        explored += 1
        for smask in range(mask, 0, -1):
            if smask & ~mask:
                continue
            imask = _checked_answer(g, painter, smask)
            nmask = mask & ~imask
            nb = _next_budgets(n, budgets, nmask, smask, imask)
            line = survive(nmask, nb)
            if line is not None:
                cache[mask, budgets] = False
                played = GameRound(_members(smask, n), _members(imask, n),
                                   {v: nb[v] for v in _members(nmask, n)})
                return [played] + line
        return None

    line = survive((1 << n) - 1, tuple(f))
    winner = "painter" if line is None else "lister"
    return GameOutcome(winner, tuple(line or ()), states_explored=explored)


def top_down_painter(g, smask) -> int:
    """Maximal independent subset of S grown from its top vertex down."""
    imask = 0
    for v in reversed(_members(smask, g.n)):
        if not g.adj[v] & imask:
            imask |= 1 << v
    return imask


def _logged(painter, asked: list):
    """The painter, with each S it is asked appended to asked."""
    def logged(g, smask):
        asked.append(smask)
        return painter(g, smask)

    return logged


def _random_case(rng: random.Random):
    n = rng.randint(1, 6)
    p = rng.random()
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    # budgets 1..20, most of them near the degree, where games are decided
    f = [rng.randint(1, 20) if rng.random() < 0.25 else rng.randint(1, g.degrees[v] + 1)
         for v in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    # an acyclic orientation is kernel-perfect
    d = Digraph(range(n), [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges])
    return g, f, d


def _painters(d):
    return greedy_painter, top_down_painter, make_kernel_painter(d)


def test_packed_walks_match_the_tuple_state_walks():
    rng = random.Random(2015)
    winners = {"painter": 0, "lister": 0}
    wide = 0
    for _ in range(200):
        g, f, d = _random_case(rng)
        wide += max(f) >= 8
        for painter in _painters(d):
            got = play_paint_game(g, f, painter=painter)
            assert got == tuple_state_walk(g, f, painter), (g.edges, f)
            winners[got.winner] += 1
    # the sample decides games both ways and needs fields wider than 3 bits
    assert min(winners.values()) > 100 and wide > 20


def test_walk_asks_each_listed_set_once():
    rng = random.Random(2015)
    calls = collections.Counter()
    for _ in range(200):
        g, f, d = _random_case(rng)
        for painter in _painters(d):
            asked, asked_ref = [], []
            play_paint_game(g, f, painter=_logged(painter, asked))
            tuple_state_walk(g, f, _logged(painter, asked_ref))
            # no set is asked twice, and the sets come in the order the
            # reference first lists them
            assert len(asked) == len(set(asked)), (g.edges, f)
            assert asked == list(dict.fromkeys(asked_ref)), (g.edges, f)
            calls["walk"] += len(asked)
            calls["reference"] += len(asked_ref)
    # the reference asks over ten times as often
    assert calls["reference"] > 5 * calls["walk"], calls


def _walk_or_error(walk, g, f, painter):
    asked = []
    try:
        return walk(g, f, _logged(painter, asked)), asked
    except ValueError as exc:
        return str(exc), asked


@pytest.mark.parametrize("arcs, error", [
    # every vertex points to 3, and 0 -> 1 -> 2 -> 0 has no kernel: the
    # first answer leaves {0, 1, 2}, where the painter fails
    ([(0, 3), (1, 3), (2, 3), (0, 1), (1, 2), (2, 0)],
     "certificate digraph is not kernel-perfect on S"),
    # the digraph misses the edge 01 of K4: the kernel {0, 1} of {0, 1, 2}
    # is not independent in the game's graph
    ([(0, 3), (1, 3), (2, 3), (2, 0), (2, 1)], "painter's set must be independent"),
])
def test_kernel_painter_errors_surface_at_the_same_round(arcs, error):
    k4 = make_named("complete", [4])
    painter = make_kernel_painter(Digraph(range(4), arcs))
    for f in ([3, 3, 3, 3], [1, 3, 3, 3], [3, 3, 1, 3]):
        got, asked = _walk_or_error(play_paint_game, k4, f, painter)
        ref, asked_ref = _walk_or_error(tuple_state_walk, k4, f, painter)
        assert got == ref, f
        # the walk raises where the reference first lists the failing set
        assert asked == list(dict.fromkeys(asked_ref)), f
        if f == [3, 3, 3, 3]:
            assert got == error and asked[-1] == 0b0111
        else:
            # Lister wins before either walk lists the failing set
            assert got.winner == "lister" and 0b0111 not in asked_ref


def minimax_wins(g: Graph, f) -> bool:
    """The painting game by its definition: Painter wins on a state when it
    has no vertex left, and, with no remaining vertex out of tokens, when
    for every nonempty S of the remaining vertices some independent I of S
    (the empty set included) leads to a state Painter wins."""
    n = g.n
    independent = [i for i in range(1 << n)
                   if not any(g.has_edge(u, v) for u in _members(i, n) for v in _members(i, n))]

    @functools.lru_cache(maxsize=None)
    def wins(mask, budgets):
        if not mask:
            return True
        if any(budgets[v] < 1 for v in _members(mask, n)):
            return False
        for smask in range(1, mask + 1):
            if smask & ~mask:
                continue
            if not any(
                wins(mask & ~imask, _next_budgets(n, budgets, mask & ~imask, smask, imask))
                for imask in independent if not imask & ~smask
            ):
                return False
        return True

    return wins((1 << n) - 1, tuple(f))


def test_solver_matches_the_definition_literal_minimax():
    rng = random.Random(22)
    seen = collections.Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        # budgets 1..d + 1, where games are decided, and now and then 0, the
        # cap 7, or d + 2
        f = [rng.choice([0, 7, rng.randint(1, g.degrees[v] + 2)]) if rng.random() < 0.2
             else rng.randint(1, g.degrees[v] + 1) for v in range(n)]
        expect = minimax_wins(g, f)
        assert PaintabilitySolver(g).wins(g.full_mask(), f) == expect, (g.edges, f)
        assert is_online_f_choosable(g, f) == expect
        seen[expect] += 1
        seen["budget 0"] += 0 in f
        seen["budget 7"] += 7 in f
        seen["1 on both ends of an edge"] += any(f[u] == f[v] == 1 for u, v in g.edges)
        seen["above the degree"] += any(f[v] > g.degrees[v] for v in range(n))
    assert min(seen.values()) > 30, seen


def test_solver_answers_are_the_maximal_independent_sets():
    """Painter's answers to S are the maximal independent subsets of S by
    definition, in descending numeric order, on every S of every graph on
    at most 5 vertices and on 200 seeded graphs on 6 or 7."""
    rng = random.Random(23)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n, connected_only=False)]
    for _ in range(200):
        n = rng.randint(6, 7)
        p = rng.random()
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    for g in graphs:
        solver = PaintabilitySolver(g)
        independent = [i for i in range(1 << g.n)
                       if not any(g.adj[v] & i for v in _members(i, g.n))]
        for smask in range(1, 1 << g.n):
            expect = [i for i in reversed(independent) if not i & ~smask
                      and all(g.adj[v] & i for v in _members(smask & ~i, g.n))]
            assert list(solver._maximal_independent_sets(smask)) == expect, (g.edges, smask)


def test_solver_at_the_budget_cap():
    # K_n is online f-choosable exactly when its i-th smallest budget is at
    # least i
    k7 = make_named("complete", [7])
    assert ONLINE_BUDGET_CAP == 7
    solver = PaintabilitySolver(k7)
    for f in ([7] * 7, [6] * 7, [7, 1, 7, 7, 7, 7, 7], [7, 1, 7, 7, 7, 7, 1],
              [1, 7, 2, 7, 3, 7, 7], [1, 2, 3, 4, 5, 6, 7], [7, 6, 5, 4, 3, 2, 1],
              [1, 2, 3, 4, 5, 6, 6], [7, 6, 5, 4, 3, 1, 1]):
        expect = all(b >= i for i, b in enumerate(sorted(f), start=1))
        assert solver.wins(k7.full_mask(), f) == expect, f
    with pytest.raises(SizeLimitError, match="budget"):
        solver.wins(k7.full_mask(), [8] + [7] * 6)


def test_surviving_painters_agree_with_the_solver():
    rng = random.Random(2015)
    seen = collections.Counter()
    for _ in range(200):
        g, f, d = _random_case(rng)
        # a budget above the degree is peeled by the solver before anything
        # else, so capping it at the degree plus one decides the same game
        # within the solver's budget cap
        choosable = is_online_f_choosable(
            g, [min(b, g.degrees[v] + 1) for v, b in enumerate(f)])
        for painter in _painters(d):
            out = play_paint_game(g, f, painter=painter)
            if out.winner == "painter":
                assert choosable, (g.edges, f)
            else:
                assert out.transcript, (g.edges, f)
            seen[out.winner, choosable] += 1
    # painters survive choosable games, and lose games the solver gives to
    # Lister, many times each
    assert seen["painter", True] > 100 and seen["lister", False] > 100, seen


def test_exhaustive_game_with_budgets_past_four_bits():
    k3 = make_named("complete", [3])
    f = [16, 31, 17]
    out = play_paint_game(k3, f, painter=greedy_painter)
    assert out == tuple_state_walk(k3, f, greedy_painter)
    assert out.winner == "painter" and out.states_explored > 1

    def idle(g, smask):
        return 0  # the empty set is independent: every listed vertex pays

    out = play_paint_game(Graph(2, [(0, 1)]), [16, 40], painter=idle)
    assert out.winner == "lister" and len(out.transcript) == 16
    assert [r.budgets for r in out.transcript[-2:]] == [{0: 1, 1: 25}, {0: 0, 1: 24}]
    assert out == tuple_state_walk(Graph(2, [(0, 1)]), [16, 40], idle)


@pytest.mark.parametrize("f", [[2, 0, 2], [2, -3, 2], [0, 0, 0]])
def test_game_with_an_empty_starting_budget(f):
    out = play_paint_game(make_named("path", [3]), f, painter=greedy_painter)
    assert out.winner == "lister" and out.transcript == ()
    assert out.states_explored == 0
