import importlib.util
import itertools
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from kernelpaint import (
    FormatError,
    Graph,
    encode_graph6,
    enumerate_graphs,
    make_named,
    parse_graph6,
    read_graph6_file,
    write_graph6_file,
)
from kernelpaint.errors import SizeLimitError


@pytest.mark.parametrize(
    "text,n,m",
    [("A?", 2, 0), ("A_", 2, 1), ("Bw", 3, 3), ("@", 1, 0), ("?", 0, 0)],
)
def test_parse_known_strings(text, n, m):
    g = parse_graph6(text)
    assert (g.n, g.m) == (n, m)


def test_encode_known_graphs():
    assert encode_graph6(Graph(2, [(0, 1)])) == "A_"
    assert encode_graph6(Graph(2)) == "A?"
    assert encode_graph6(make_named("complete", [3])) == "Bw"


def test_round_trip_on_enumerated_corpus():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert parse_graph6(encode_graph6(g)) == g


def _benchmark_lines(monkeypatch) -> list[str]:
    """The benchmark's two seeded graph6 files at seed 0, labelled graphs on
    7 and 8 vertices written by its own encoder."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.generate_lines(0, "main") + workloads.generate_lines(0, "small")


def test_a_graph_keeps_the_line_it_was_encoded_or_parsed_from(monkeypatch):
    # the parser takes only the canonical short form, so the line a parsed
    # graph keeps is the one the encoder gives for its rows
    lines = []
    for g in (g for n in range(1, 8) for g in enumerate_graphs(n, connected_only=False)):
        line = encode_graph6(Graph._from_rows(g.adj))  # a new graph keeps nothing yet
        assert encode_graph6(g) == line
        lines.append(line)
    lines += _benchmark_lines(monkeypatch)
    assert len(lines) == 2772
    for line in lines:
        g = parse_graph6(line + "\n")
        assert g._graph6 == line
        assert encode_graph6(Graph._from_rows(g.adj)) == line
    assert parse_graph6(">>graph6<<Bw\n")._graph6 == "Bw"


def test_round_trip_full_desk_scale():
    # identity on every isomorphism class up to the enumeration cap
    for n in (7, 8):
        for g in enumerate_graphs(n):
            assert parse_graph6(encode_graph6(g)) == g


def test_decoded_rows_equal_the_checked_graph():
    """parse_graph6 sets rows without Graph's per-pair checks: the result
    equals the graph built pair by pair, degrees and hash included, on every
    class with n <= 7 and 500 seeded labelled graphs with n up to 62."""
    rnd = random.Random(20)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for _ in range(500):
        n, p = rnd.randint(0, 62), rnd.random()
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rnd.random() < p]))
    for g in graphs:
        h = parse_graph6(encode_graph6(g))
        assert h == g
        assert (h.n, h.adj, h.degrees, hash(h)) == (g.n, g.adj, g.degrees, hash(g))


def test_codec_agrees_with_networkx():
    # enumerated classes, the atlas, and seeded random graphs up to n = 62
    nx = pytest.importorskip("networkx")
    rnd = random.Random(62)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [Graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()]
    for _ in range(200):
        n, p = rnd.randint(1, 62), rnd.random()
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rnd.random() < p]))
    graphs += [Graph(62, itertools.combinations(range(62), 2)), Graph(62)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert theirs == encode_graph6(g)
        back = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.randoms(use_true_random=False))
def test_round_trip_random(n, rnd):
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rnd.random() < 0.3
    ]
    g = Graph(n, edges)
    assert parse_graph6(encode_graph6(g)) == g


def test_parse_errors_name_offsets():
    with pytest.raises(FormatError, match="offset 1"):
        parse_graph6("A" + chr(20))
    with pytest.raises(FormatError, match="truncated"):
        parse_graph6("D")  # n=5 needs at least 2 body bytes
    with pytest.raises(FormatError, match="trailing"):
        parse_graph6("A??")
    with pytest.raises(FormatError):
        parse_graph6("")


def test_long_form_unsupported():
    with pytest.raises(SizeLimitError):
        parse_graph6("~??" + "?" * 100)
    with pytest.raises(SizeLimitError):
        encode_graph6(Graph(63))


def test_file_io_with_comments(tmp_path):
    graphs = [make_named("cycle", [5]), make_named("complete", [4])]
    path = tmp_path / "corpus.g6"
    write_graph6_file(path, graphs, comment="two test graphs")
    text = path.read_text()
    assert text.startswith("#")
    assert read_graph6_file(path) == graphs
    # header prefix and blank lines are tolerated
    path.write_text(">>graph6<<A_\n\n# comment\nBw\n")
    back = read_graph6_file(path)
    assert [g.m for g in back] == [1, 3]


def test_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("A_\nA\x01\n")
    with pytest.raises(FormatError, match="bad.g6:2"):
        read_graph6_file(path)
