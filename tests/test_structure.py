import itertools
import math
import random
import signal
import time
from fractions import Fraction

import pytest

from kernelpaint import (
    Graph,
    UndefinedStatisticError,
    beta_t,
    block_decomposition,
    canonical_key,
    enumerate_graphs,
    find_even_cycle_one_chord,
    gallai_count_check,
    is_gallai_forest,
    is_gallai_tree,
    low_high_split,
    make_named,
    mic,
    parse_graph6,
    random_gallai_forest,
    random_gallai_tree,
    sigma,
    triangle_free_mic_check,
)
from kernelpaint.graphs import cut_size


# -- Gallai recognition ------------------------------------------------------


def test_gallai_examples(c4, c5, k4e, bowtie):
    assert is_gallai_tree(c5)
    assert not is_gallai_tree(c4)
    check = is_gallai_tree(k4e)
    assert not check and check.offender == frozenset(range(4))
    assert is_gallai_tree(bowtie)
    assert is_gallai_tree(make_named("complete", [5]))
    assert is_gallai_tree(make_named("path", [4]))


def _is_clique_or_odd_cycle_by_definition(g, block):
    """Every pair adjacent, or an odd number of vertices joined in one ring."""
    if all(g.has_edge(u, v) for u, v in itertools.combinations(block, 2)):
        return True
    if len(block) % 2 == 0 or any(len(set(g.neighbors(v)) & block) != 2 for v in block):
        return False
    ring, prev, cur = [min(block)], None, min(block)
    while True:  # walk the ring; it must close after visiting every vertex
        prev, cur = cur, next(w for w in g.neighbors(cur) if w in block and w != prev)
        if cur == ring[0]:
            return len(ring) == len(block)
        ring.append(cur)


def test_gallai_offender_is_the_first_bad_block():
    """On every atlas graph (disconnected ones through is_gallai_forest) the
    verdict and the offender are those of a literal test of each block of
    block_decomposition, in its order."""
    nx = pytest.importorskip("networkx")
    verdicts = set()
    for a in nx.graph_atlas_g():
        g = Graph(a.number_of_nodes(), a.edges())
        want = next((b for b in block_decomposition(g).blocks
                     if not _is_clique_or_odd_cycle_by_definition(g, b)), None)
        check = is_gallai_forest(g)
        assert (bool(check), check.offender) == (want is None, want)
        if g.n and g.is_connected():
            assert is_gallai_tree(g) == check
        verdicts.add(bool(check))
    assert verdicts == {True, False}


def test_gallai_tree_requires_connected():
    two = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="forest"):
        is_gallai_tree(two)
    assert is_gallai_forest(two)


def test_gallai_tree_rejects_exactly_the_disconnected_graphs():
    """is_gallai_tree reads connectivity off its block search: on every
    nonempty atlas graph it raises exactly when networkx finds the graph
    disconnected."""
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g()[1:]:
        g = Graph(a.number_of_nodes(), a.edges())
        if nx.is_connected(a):
            assert is_gallai_tree(g) == is_gallai_forest(g)
        else:
            with pytest.raises(ValueError, match="forest"):
                is_gallai_tree(g)


# -- Rubin's block lemma ------------------------------------------------------


def _check_rubin_output(g, res):
    cyc = res.cycle
    k = len(cyc)
    assert k % 2 == 0 and k >= 4
    assert len(set(cyc)) == k
    for i in range(k):
        assert g.has_edge(cyc[i], cyc[(i + 1) % k])
    cyc_edges = {tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k)}
    chords = [
        (u, v)
        for u, v in itertools.combinations(sorted(cyc), 2)
        if g.has_edge(u, v) and (u, v) not in cyc_edges
    ]
    assert len(chords) <= 1
    assert res.chord == (chords[0] if chords else None)


def test_even_cycle_examples(c4, k4e):
    res = find_even_cycle_one_chord(c4)
    _check_rubin_output(c4, res)
    assert res.chord is None and len(res.cycle) == 4
    res = find_even_cycle_one_chord(k4e)
    _check_rubin_output(k4e, res)
    assert res.chord == (0, 1)  # the edge in two triangles
    res = find_even_cycle_one_chord(make_named("cycle", [6]))
    assert len(res.cycle) == 6 and res.chord is None


def test_even_cycle_rejects_bad_inputs(c5):
    with pytest.raises(ValueError):
        find_even_cycle_one_chord(c5)  # odd cycle
    with pytest.raises(ValueError):
        find_even_cycle_one_chord(make_named("complete", [4]))
    with pytest.raises(ValueError):
        find_even_cycle_one_chord(make_named("path", [4]))  # not 2-connected


def _brute_even_cycle_exists(g):
    for k in range(4, g.n + 1, 2):
        for vs in itertools.combinations(range(g.n), k):
            for perm in itertools.permutations(vs[1:]):
                if perm[0] > perm[-1]:
                    continue
                seq = (vs[0],) + perm
                if not all(g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)):
                    continue
                inside = sum(
                    1 for u, v in itertools.combinations(vs, 2) if g.has_edge(u, v)
                )
                if inside <= k + 1:
                    return True
    return False


def test_even_cycle_against_brute_force_oracle():
    for n in range(4, 7):
        for g in enumerate_graphs(n, connected_only=True):
            from kernelpaint import block_decomposition

            bt = block_decomposition(g)
            if len(bt.blocks) != 1:
                continue
            if g.m == g.n * (g.n - 1) // 2:
                continue
            if g.n % 2 == 1 and all(d == 2 for d in g.degrees):
                continue
            res = find_even_cycle_one_chord(g)
            _check_rubin_output(g, res)
            assert _brute_even_cycle_exists(g)
            # vertex set of the returned cycle induces at most |cycle|+1 edges
            vs = set(res.cycle)
            inside = sum(
                1 for u, v in itertools.combinations(sorted(vs), 2) if g.has_edge(u, v)
            )
            assert inside <= len(res.cycle) + 1


def test_even_cycle_k5_minus_e_corner():
    k5e = Graph(5, [e for e in itertools.combinations(range(5), 2) if e != (3, 4)])
    res = find_even_cycle_one_chord(k5e)
    _check_rubin_output(k5e, res)


def test_even_cycle_output_valid_on_all_seven_vertex_inputs():
    from kernelpaint import block_decomposition

    count = 0
    for g in enumerate_graphs(7, connected_only=True):
        if len(block_decomposition(g).blocks) != 1:
            continue
        if g.m == g.n * (g.n - 1) // 2:
            continue
        if g.n % 2 == 1 and all(d == 2 for d in g.degrees):
            continue
        _check_rubin_output(g, find_even_cycle_one_chord(g))
        count += 1
    assert count > 400  # most connected 7-vertex graphs are 2-connected


def test_even_cycle_uses_a_shortest_ear():
    # The path 1-2-3-4 closes with 0 into an induced C5.  The ear 0-5-6-2 from
    # 0 closes with the arc 2-3-4-0 into a 6-cycle with chords 3-6 and 4-6;
    # the shortest ear 2-6-3 gives an even cycle with one chord.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (0, 5), (5, 6), (6, 2), (6, 3), (6, 4)])
    _check_rubin_output(g, find_even_cycle_one_chord(g))


def _k4_with_path(length):
    """K4 with a path through `length` new vertices joining its vertices 0 and 1."""
    path = [0, *range(4, 4 + length), 1]
    return Graph(4 + length, [*itertools.combinations(range(4), 2), *zip(path, path[1:])])


def test_even_cycle_on_k4_with_odd_paths():
    # n = 11 is graph6 J~OGGC@?H?_; an exhaustive search takes seconds there
    assert canonical_key(_k4_with_path(7)) == canonical_key(parse_graph6("J~OGGC@?H?_"))
    for length in range(1, 40, 2):
        g = _k4_with_path(length)
        start = time.perf_counter()
        res = find_even_cycle_one_chord(g)
        assert time.perf_counter() - start < 1.0, g.n
        _check_rubin_output(g, res)


def test_even_cycle_on_random_larger_graphs():
    # G(n, p) mostly closes at the first cut; a Hamiltonian cycle with a few
    # chords also needs the ears, one inner vertex or longer
    rng = random.Random(20261018)
    count = 0
    while count < 400:
        n = rng.randint(9, 40)
        if count % 2:
            p = rng.uniform(2.5 / n, 0.9)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        else:
            order = rng.sample(range(n), n)
            edges = list(zip(order, order[1:] + order[:1]))
            edges += [rng.sample(range(n), 2) for _ in range(rng.randint(1, n))]
        g = Graph(n, edges)
        if not g.is_connected() or len(block_decomposition(g).blocks) != 1:
            continue
        if g.m == n * (n - 1) // 2 or (n % 2 == 1 and g.m == n and max(g.degrees) == 2):
            continue
        _check_rubin_output(g, find_even_cycle_one_chord(g))
        count += 1


# -- mic ----------------------------------------------------------------------


def test_mic_examples(c4, c5):
    assert mic(c5).value == 4  # Gallai tree: |G| - 1
    res = mic(c4)
    assert res.value == 4 and res.witness == {0, 2}
    assert mic(Graph(1)) .value == 0


def test_mic_witness_is_lex_smallest_independent():
    for g in enumerate_graphs(5):
        res = mic(g)
        w = res.witness
        assert all(not g.has_edge(u, v) for u in w for v in w if u < v)
        assert cut_size(g, w, range(g.n)) == res.value
        # no independent set beats it; ties resolve to the lex-smallest
        best = []
        for k in range(g.n + 1):
            for cand in itertools.combinations(range(g.n), k):
                if any(g.has_edge(u, v) for u, v in itertools.combinations(cand, 2)):
                    continue
                val = sum(g.degrees[v] for v in cand)
                best.append((val, cand))
        top = max(v for v, _ in best)
        assert res.value == top
        lex = min(c for v, c in best if v == top)
        assert tuple(sorted(w)) == lex


def test_mic_monotone_under_connected_induced_subgraphs():
    rng = random.Random(11)
    for g in enumerate_graphs(6, connected_only=True):
        if rng.random() < 0.6:
            continue
        for size in (3, 4, 5):
            for _ in range(2):
                vs = sorted(rng.sample(range(g.n), size))
                h = g.induced(vs)
                if not h.is_connected():
                    continue
                assert mic(g).value >= mic(h).value + (g.n - size)
        assert mic(g).value >= g.n - 1


# -- splits, sigma, beta ------------------------------------------------------


def test_low_high_split_examples(petersen):
    split = low_high_split(petersen)
    assert split.high == frozenset() and len(split.low) == 10
    star = make_named("complete_bipartite", [1, 3])
    split = low_high_split(star)
    assert split.high == {0} and split.low == {1, 2, 3}
    o5 = make_named("O_n", [5])
    split = low_high_split(o5)
    assert split.high == {0, 1} and len(split.low) == 7
    assert split.high_edgeless and split.gap_is_one


def test_sigma_exact_values(petersen, c4):
    assert sigma(petersen) == Fraction(-10, 3)
    assert sigma(c4) == 0
    assert sigma(make_named("complete_bipartite", [1, 3])) == 6
    with pytest.raises(UndefinedStatisticError):
        sigma(Graph(2))


def test_sigma_identity_when_gap_one_and_high_edgeless():
    # (1+delta)|H| = delta|L| - 2||L|| whenever max degree = delta+1, H edgeless
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            split = low_high_split(g)
            if not (split.gap_is_one and split.high_edgeless):
                continue
            delta = min(g.degrees)
            low_edges = sum(
                1 for u, v in g.edges if u in split.low and v in split.low
            )
            assert (1 + delta) * len(split.high) == delta * len(split.low) - 2 * low_edges


def test_beta_t_examples(petersen):
    assert beta_t(make_named("complete", [4]), 3) == 1
    assert beta_t(make_named("path", [3]), 1) == 2
    assert beta_t(petersen, 3) == 4


# -- counting inequality ------------------------------------------------------


def test_gallai_count_k5_tight_and_k1():
    chk = gallai_count_check(make_named("complete", [5]), 6)
    assert chk.holds and chk.lhs == chk.rhs == 5
    chk = gallai_count_check(Graph(1), 6)
    assert chk.holds and (chk.lhs, chk.rhs) == (5, -1)


def test_gallai_count_takes_an_odd_cycle_block_of_k_vertices():
    # C7 has 7 vertices and one block, but it is no K_7
    chk = gallai_count_check(make_named("cycle", [7]), 7)
    assert chk.holds and (chk.lhs, chk.rhs) == (28, Fraction(38, 5))


def test_gallai_count_rejects_bad_inputs(c4):
    with pytest.raises(ValueError, match="k >= 6"):
        gallai_count_check(Graph(1), 5)
    with pytest.raises(ValueError, match="not a Gallai forest"):
        gallai_count_check(c4, 6)
    with pytest.raises(ValueError, match="maximum degree"):
        gallai_count_check(make_named("complete", [8]), 6)
    with pytest.raises(ValueError, match="K_6"):
        gallai_count_check(make_named("complete", [6]), 6)


def test_gallai_count_on_seeded_forests():
    for k in (6, 7, 8):
        for i in range(40):
            forest = random_gallai_forest(
                tree_count=1 + i % 3, block_count=3, max_block_size=k - 1,
                rng=random.Random(1000 * k + i), max_degree=k - 1,
            )
            assert gallai_count_check(forest, k).holds


# -- random generators --------------------------------------------------------


def test_random_gallai_tree_properties():
    seen_sizes = set()
    for seed in range(25):
        t = random_gallai_tree(3, 5, random.Random(seed))
        assert t.is_connected()
        assert is_gallai_tree(t)
        assert mic(t).value == t.n - 1
        seen_sizes.add(t.n)
    assert len(seen_sizes) > 1
    assert random_gallai_tree(2, 3, random.Random(7)) == random_gallai_tree(
        2, 3, random.Random(7))
    single = random_gallai_tree(1, 4, random.Random(3))
    assert is_gallai_tree(single)


def test_random_gallai_forest_caps_degree():
    for seed in range(10):
        f = random_gallai_forest(2, 3, 5, random.Random(seed), max_degree=5)
        assert max(f.degrees) <= 5
        assert is_gallai_forest(f)


def test_random_gallai_forest_checks_its_arguments_up_front():
    # max_degree=0 rejected every draw for ever, so a timer bounds the test
    # should the check go missing
    def hung(signum, frame):
        raise TimeoutError("random_gallai_forest did not return")

    old = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for kwargs, name in (
            ({"tree_count": 0}, "tree_count"),
            ({"tree_count": 0, "max_degree": 3}, "tree_count"),
            ({"tree_count": -1}, "tree_count"),
            ({"block_count": 0}, "block_count"),
            ({"max_block_size": 1}, "max_block_size"),
            ({"max_degree": 0}, "max_degree"),
            ({"max_degree": -2}, "max_degree"),
        ):
            args = {"tree_count": 2, "block_count": 3, "max_block_size": 4,
                    "rng": random.Random(5), **kwargs}
            with pytest.raises(ValueError, match=name):
                random_gallai_forest(**args)
        edges = random_gallai_forest(3, 2, 2, random.Random(5), max_degree=1)
        assert edges.n == 6 and edges.degrees == (1,) * 6
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_random_gallai_forest_draws_from_its_rng_alone():
    rng = random.Random(11)
    first = random_gallai_forest(3, 3, 5, rng, max_degree=5)
    second = random_gallai_forest(3, 3, 5, rng, max_degree=5)
    assert random_gallai_forest(3, 3, 5, random.Random(11), max_degree=5) == first
    assert first != second


# -- triangle-free mic bound --------------------------------------------------


def test_triangle_free_mic_examples(petersen, c4):
    chk = triangle_free_mic_check(petersen)
    assert chk.holds and chk.mic_value == 12
    assert math.isclose(chk.bound, 10 * math.log2(3) / 4)
    assert triangle_free_mic_check(c4).holds
    chk = triangle_free_mic_check(make_named("complete", [2]))
    assert chk.holds and chk.bound == 0.0


def test_triangle_free_mic_rejects_bad_inputs(c5):
    with pytest.raises(ValueError, match="triangle"):
        triangle_free_mic_check(make_named("complete", [3]))
    with pytest.raises(ValueError, match="degree"):
        triangle_free_mic_check(Graph(2))
