import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from kernelpaint import (
    Certificate,
    FormatError,
    Graph,
    encode_graph6,
    enumerate_graphs,
    extract_reducible,
    make_named,
    parse_graph6,
    run_suite,
    validate_certificate,
    write_graph6_file,
)
from kernelpaint import harness, reduce, structure
from kernelpaint.cli import main as cli_main
from kernelpaint.errors import HypothesisNotMetError
from kernelpaint.graphs import clique_number
from kernelpaint.harness import SUITE_NAMES
from kernelpaint.orient import ATDecision, Digraph, KPDecision, OrientationResult
from kernelpaint.structure import MicResult
from kernelpaint.verify import GameOutcome


# -- certificate validation -----------------------------------------------------


def test_validate_good_certificate(c4):
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    ok, why = validate_certificate(cert, c4, c4.degrees)
    assert ok, why
    ok, _ = validate_certificate(Certificate.loads(cert.dumps()), c4, c4.degrees)
    assert ok


def test_validate_rejects_reversed_arc(c4):
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    t, h = cert.digraph.arcs[0]
    arcs = ((h, t),) + cert.digraph.arcs[1:]
    mutated = Certificate(cert.h_vertices, Digraph(cert.h_vertices, arcs), cert.f_h)
    ok, why = validate_certificate(mutated, c4, c4.degrees)
    assert not ok and "out-degree" in why


def test_validate_rejects_directed_triangle():
    k3 = make_named("complete", [3])
    cert = Certificate(
        (0, 1, 2),
        Digraph(range(3), [(0, 1), (1, 2), (2, 0)]),
        {0: 2, 1: 2, 2: 2},
    )
    ok, why = validate_certificate(cert, k3, k3.degrees)
    assert not ok and "kernel-perfect" in why


def test_validate_rejects_missing_edge_and_wrong_f(c4):
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    short = Certificate(cert.h_vertices, Digraph(cert.h_vertices, cert.digraph.arcs[1:]),
                        cert.f_h)
    ok, why = validate_certificate(short, c4, c4.degrees)
    assert not ok and "carries no arc" in why
    wrong_f = Certificate(cert.h_vertices, cert.digraph,
                          {v: cert.f_h[v] + 1 for v in cert.h_vertices})
    ok, why = validate_certificate(wrong_f, c4, c4.degrees)
    assert not ok and "f_h" in why


def test_validate_names_the_vertex_a_partial_table_misses(c4):
    # a partial table used to fail with a bare KeyError or IndexError
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    for f, v in (({0: 2}, 1), ([2, 2], 2)):
        with pytest.raises(ValueError, match=f"f gives no value for vertex {v}"):
            validate_certificate(cert, c4, f)
    with pytest.raises(ValueError, match=r"f\(3\): 2.5 is not an integer"):
        validate_certificate(cert, c4, [2, 2, 2, 2.5])


def test_validate_certificates_whose_labels_are_not_positions():
    """Peeled certificates keep the host's labels, so H is not 0..k-1.  On
    each: it validates; dropping an arc fails the edge check exactly when no
    arc is left on that edge; and a digraph that lists an arc twice is
    refused before validation sees it."""
    rng = random.Random(22)
    checked = 0
    for n in range(3, 7):
        for g, _ in itertools.product(enumerate_graphs(n, connected_only=True), range(8)):
            # tables near the degree: extraction peels often there
            f = [rng.randint(max(1, d - 1), d + 1) for d in g.degrees]
            try:
                cert = extract_reducible(g, f)
            except HypothesisNotMetError:
                continue
            h = cert.h_vertices
            if h == tuple(range(len(h))):
                continue
            checked += 1
            assert validate_certificate(cert, g, f) == (True, "ok")
            arcs = cert.digraph.arcs
            for arc in arcs:
                rest = [a for a in arcs if a != arc]
                ok, why = validate_certificate(Certificate(h, Digraph(h, rest), cert.f_h), g, f)
                assert ("carries no arc" in why) == ((arc[1], arc[0]) not in rest)
            t, head = arcs[0]
            with pytest.raises(ValueError, match=re.escape(f"arc ({t},{head}) listed twice")):
                Digraph(h, list(arcs) + [(t, head)])
    assert checked > 100


def _malformed_c4_certificates():
    """Two C4 certificates that once validated: one lists vertex 0 twice in
    h_vertices, one gives f_h a value at vertex 99, outside H."""
    c4 = make_named("cycle", [4])
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    twice = Certificate(cert.h_vertices + (cert.h_vertices[0],), cert.digraph, cert.f_h)
    stray = Certificate(cert.h_vertices, cert.digraph, {**cert.f_h, 99: 5})
    return c4, [(twice, "twice"), (stray, "vertex 99 outside H")]


def test_validate_rejects_repeated_vertex_and_stray_f_h():
    c4, cases = _malformed_c4_certificates()
    for cert, reason in cases:
        ok, why = validate_certificate(cert, c4, c4.degrees)
        assert not ok and reason in why


def test_cli_cert_validate_rejects_repeated_vertex_and_stray_f_h(tmp_path, capsys):
    c4, cases = _malformed_c4_certificates()
    for cert, reason in cases:
        obj = {"vertices": list(cert.h_vertices),
               "arcs": [list(a) for a in cert.digraph.arcs],
               "f_h": {str(v): val for v, val in cert.f_h.items()}}
        payload = {"graph6": encode_graph6(c4), "f": {str(v): 2 for v in range(4)},
                   "certificate": obj}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["cert", "validate", str(path)]) == 1
        assert "invalid: " in capsys.readouterr().out


def test_cli_cert_validate_rejects_fractional_numbers(tmp_path, capsys):
    # a valid C4 certificate file, then the same file with a fractional f or
    # f_h; each used to be truncated to a valid one
    c4 = make_named("cycle", [4])
    cert = extract_reducible(c4, c4.degrees, [0, 2]).to_json()
    payload = {"graph6": encode_graph6(c4), "f": {str(v): 2 for v in range(4)},
               "certificate": cert}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["cert", "validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid: ok\n"
    fractional_f = {**payload, "f": {**payload["f"], "0": 2.9}}
    fractional_f_h = {**payload, "certificate": {**cert, "f_h": dict.fromkeys(cert["f_h"], 2.5)}}
    for bad, number in ((fractional_f, "2.9"), (fractional_f_h, "2.5")):
        path.write_text(json.dumps(bad))
        assert cli_main(["cert", "validate", str(path)]) == 2
        assert f"{number} is not an integer" in capsys.readouterr().err


# certificate JSON that is valid JSON of the wrong shape
MALFORMED_CERTIFICATES = [
    [],
    {"vertices": [0]},
    {"vertices": [0, 1], "arcs": [[0, 1]], "f_h": []},
    {"vertices": [0, 1], "arcs": [[0, 1, 1]], "f_h": {"0": 2, "1": 2}},
    {"vertices": [0, 1], "arcs": [5], "f_h": {"0": 2, "1": 2}},
    {"vertices": [0, 1], "arcs": [[0, 0]], "f_h": {"0": 2, "1": 2}},
    {"vertices": 3, "arcs": [], "f_h": {}},
    # numbers that are not integers, once truncated or read
    {"vertices": [0, 1.5], "arcs": [[0, 1]], "f_h": {"0": 2, "1": 2}},
    {"vertices": [0, 1], "arcs": [[0, "1"]], "f_h": {"0": 2, "1": 2}},
    {"vertices": [0, 1], "arcs": [[0, 1]], "f_h": {"0": True, "1": 2}},
    {"vertices": [0, 1], "arcs": [[0, 1]], "f_h": {"0": 2, "1": "2"}},
]


def test_validate_malformed_json(c4):
    # one parser reads certificate JSON; validation takes its Certificate
    with pytest.raises(FormatError, match="unparseable"):
        Certificate.loads("{not json")
    for obj in MALFORMED_CERTIFICATES:
        with pytest.raises(FormatError, match="certificate"):
            Certificate.from_json(obj)
        with pytest.raises(FormatError, match="certificate"):
            Certificate.loads(json.dumps(obj))


# -- suite runner ----------------------------------------------------------------


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")


def test_suite_ceiling_enforced():
    with pytest.raises(ValueError, match="ceiling"):
        run_suite("in-orient-oracle", max_n=6)


def test_reports_are_byte_identical():
    a = run_suite("mic-basics", max_n=5).to_jsonl()
    b = run_suite("mic-basics", max_n=5).to_jsonl()
    assert a == b
    a = run_suite("cut-lemma", max_n=5, seed=3).to_jsonl()
    b = run_suite("cut-lemma", max_n=5, seed=3).to_jsonl()
    assert a == b


def test_report_records_reparse():
    rep = run_suite("mic-basics", max_n=4)
    for record in rep.records:
        assert parse_graph6(record["graph6"]).n <= 4
    summary = rep.summary()
    assert summary["total"] == summary["passed"] + summary["failed"] + summary["skipped"]


def test_file_source(tmp_path):
    from kernelpaint import write_graph6_file

    graphs = [make_named("cycle", [5]), make_named("cycle", [4]),
              make_named("complete", [4])]
    path = tmp_path / "corpus.g6"
    write_graph6_file(path, graphs)
    rep = run_suite("mic-basics", source=str(path))
    assert rep.passed and len(rep.records) == 3


def test_skip_records_for_oversized_file_graphs(tmp_path):
    from kernelpaint import write_graph6_file

    big = make_named("cycle", [9])
    path = tmp_path / "big.g6"
    write_graph6_file(path, [big, make_named("cycle", [5])])
    rep = run_suite("mic-strength", source=str(path))
    verdicts = [r["verdict"] for r in rep.records]
    assert "skip" in verdicts  # the 9-cycle exceeds the OC-reducibility cap
    assert rep.passed


def test_timings_flag_controls_meta(capsys):
    summary = run_suite("mic-basics", max_n=3).summary()
    assert "elapsed_s" not in summary and "corpus_s" not in summary
    rep = run_suite("mic-basics", max_n=3)
    assert all("elapsed_ms" not in r for r in rep.records)
    rep = run_suite("mic-basics", max_n=3, timings=True)
    summary = rep.summary()
    # the clock covers corpus construction as well as the checks
    assert 0 <= summary["corpus_s"] <= summary["elapsed_s"]
    assert all("elapsed_ms" in r for r in rep.records)
    assert cli_main(["suite", "mic-basics", "--max-n", "3", "--timings"]) == 0
    assert "corpus_s: " in capsys.readouterr().out


def test_max_n_sets_corpus():
    assert len(run_suite("mic-basics", max_n=3).records) == 4


@pytest.mark.parametrize("name", ["brooks-alpha", "cut-lemma"])
def test_max_n_below_one_is_rejected(name, capsys):
    # an empty corpus would pass with total 0
    for max_n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            run_suite(name, max_n=max_n)
        assert cli_main(["suite", name, "--max-n", str(max_n)]) == 2
        assert "at least 1" in capsys.readouterr().err


def test_max_n_with_a_source_is_rejected(tmp_path, capsys):
    # the file sets the corpus, so max_n would be silently ignored
    from kernelpaint import write_graph6_file

    path = tmp_path / "corpus.g6"
    write_graph6_file(path, [make_named("complete", [8]), make_named("cycle", [6])])
    with pytest.raises(ValueError, match="no max_n"):
        run_suite("brooks-alpha", source=str(path), max_n=3)
    assert cli_main(["suite", "brooks-alpha", "--source", str(path), "--max-n", "3"]) == 2
    assert "no max_n" in capsys.readouterr().err


def test_allow_large_with_a_source_is_rejected(tmp_path, capsys):
    # the file sets the corpus, and a graph past a cap becomes a skip record
    # whatever allow_large says, so it would be silently ignored
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    with pytest.raises(ValueError, match="no allow_large"):
        run_suite("mic-basics", source=str(path), allow_large=True)
    assert cli_main(["suite", "mic-basics", "--source", str(path), "--allow-large"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli_main(["suite", "mic-basics", "--source", str(path)]) == 0


def test_allow_large_within_the_ceiling_is_rejected(capsys):
    # the enumerated corpus stays within the ceiling, so there is nothing to
    # lift and the flag would be silently ignored
    for max_n in (None, 3, 5):
        with pytest.raises(ValueError, match="no allow_large"):
            run_suite("in-orient-oracle", max_n=max_n, allow_large=True)
    assert cli_main(["suite", "in-orient-oracle", "--allow-large", "--max-n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no allow_large" in err
    assert cli_main(["suite", "in-orient-oracle", "--allow-large"]) == 2
    assert cli_main(["suite", "in-orient-oracle", "--max-n", "3"]) == 0


def test_gallai_count_rejects_allow_large(capsys):
    # it builds its own forests, so there is no corpus ceiling to lift
    with pytest.raises(ValueError, match="no allow_large"):
        run_suite("gallai-count", allow_large=True)
    assert cli_main(["suite", "gallai-count", "--allow-large"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no allow_large" in err


def test_edges_4critical_coverage_needs_only_present_targets(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text("Dhc\n")  # C5: no K4, no Moser spindle
    rep = run_suite("edges-4critical", source=str(path))
    coverage = [r for r in rep.records if r.get("phase") == "coverage"]
    assert coverage == [{"verdict": "pass", "phase": "coverage", "found": []}]
    assert cli_main(["suite", "edges-4critical", "--source", str(path)]) == 0


def test_edges_4critical_gives_the_4_regular_boundary_a_plain_record(tmp_path):
    # the complement of C7 is 4-regular and 4-critical: its boundary record
    # is the graph's one record, with no phase, so a reader that sets phase
    # records aside still finds it
    path = tmp_path / "critical.g6"
    path.write_text("FUzro\nC~\n")
    rep = run_suite("edges-4critical", source=str(path))
    assert [r for r in rep.records if "phase" not in r] == [
        {"verdict": "skip", "graph6": "FUzro",
         "reason": "4-regular: outside the gap-1 hypothesis",
         "edges": 14, "formula": 11, "n": 7},
        {"verdict": "pass", "graph6": "C~", "edges": 6, "formula": 6, "n": 4},
    ]


def test_mic_strength_keys_only_graphs_shaped_like_targets(monkeypatch):
    calls = []
    key = harness.canonical_key
    monkeypatch.setattr(harness, "canonical_key", lambda g: calls.append(g) or key(g))
    rep = run_suite("mic-strength", max_n=5)
    tight = [r for r in rep.records if r.get("phase") == "tightness"]
    assert [(r["graph"], r["verdict"]) for r in tight] == [("C5", "pass"), ("K4", "pass")]
    # C5 and K4, then the one corpus graph with each one's degree sequence
    assert len(calls) <= 4


PER_GRAPH_SUITES = sorted(set(SUITE_NAMES) - {"gallai-count", "cut-lemma"})


@pytest.mark.parametrize("name", PER_GRAPH_SUITES)
def test_empty_graph_is_skipped(name, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("?\n")
    rep = run_suite(name, source=str(path))
    per_graph = [r for r in rep.records if "phase" not in r]
    assert per_graph == [{"verdict": "skip", "graph6": "?", "reason": "empty graph"}]
    assert rep.passed


def _contract_corpus() -> list[Graph]:
    """Seeded labelled graphs on at most 6 vertices, among them the empty
    graph and a disconnected graph."""
    rng = random.Random(25)
    graphs = [Graph(0), Graph(5, [(0, 1), (1, 2), (3, 4)])]
    for _ in range(10):
        n = rng.randint(1, 6)
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.6]))
    rng.shuffle(graphs)
    return graphs


@pytest.mark.parametrize("name", PER_GRAPH_SUITES)
def test_one_record_per_corpus_graph(name, tmp_path):
    # every other record is a phase record: a fixed pair, a tightness or a
    # coverage check
    from kernelpaint import write_graph6_file

    graphs = _contract_corpus()
    path = tmp_path / "corpus.g6"
    write_graph6_file(path, graphs)
    kept = [encode_graph6(g) for g in graphs]
    assert "?" in kept and "DgC" in kept
    rep = run_suite(name, source=str(path))
    assert [r.get("graph6") for r in rep.records if "phase" not in r] == kept


@pytest.mark.parametrize("name", PER_GRAPH_SUITES)
def test_a_disconnected_file_graph_gets_a_skip_record(name, tmp_path, capsys):
    # a graph6 file's disconnected graph used to vanish from the report of
    # every suite that checks connected graphs only
    path = tmp_path / "corpus.g6"
    path.write_text("Cr\nDgC\nC~\n")
    rep = run_suite(name, source=str(path))
    per_graph = [r for r in rep.records if "phase" not in r]
    assert [r["graph6"] for r in per_graph] == ["Cr", "DgC", "C~"]
    skip = {"verdict": "skip", "graph6": "DgC",
            "reason": "disconnected: this suite checks connected graphs"}
    assert (per_graph[1] == skip) == harness._SUITES[name].connected_only
    assert cli_main(["suite", name, "--source", str(path)]) == 0
    assert f"total: {len(rep.records)}\n" in capsys.readouterr().out
    if name == "mic-basics":
        assert len(rep.records) == 3 and rep.summary()["skipped"] == 1


def test_an_enumerated_corpus_is_not_screened_again(monkeypatch):
    # enumeration reads each class's connectivity from its parent, finding
    # the components of each of the 18 classes on at most 4 vertices once
    # as it extends it, so neither it nor the suite tests a class again
    calls, components = [], []
    monkeypatch.setattr("kernelpaint.graphs._LEVELS", {})  # a cold cache
    monkeypatch.setattr(Graph, "is_connected", lambda g: calls.append(g))
    masks = Graph.component_masks
    monkeypatch.setattr(Graph, "component_masks",
                        lambda g, *a: components.append(g) or masks(g, *a))
    rep = run_suite("brooks-alpha", max_n=5)
    assert len(rep.records) == 31
    assert not calls
    parents = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    assert len(parents) == 18
    assert list(map(id, components)) == list(map(id, parents))


def test_cut_lemma_gives_a_record_to_every_file_graph(tmp_path, capsys):
    # a file of graphs above the cut-lemma cap used to give an empty report
    # that passed
    path = tmp_path / "corpus.g6"
    path.write_text("F?~v_\nF@Ue?\n")
    rep = run_suite("cut-lemma", source=str(path))
    reason = "size limit: cut-lemma check capped at n = 6"
    assert rep.records == [{"verdict": "skip", "graph6": line, "reason": reason}
                           for line in ("F?~v_", "F@Ue?")]
    assert cli_main(["suite", "cut-lemma", "--source", str(path)]) == 0
    out = capsys.readouterr().out
    assert "total: 2\n" in out and "skipped: 2\n" in out
    # the skip records come ahead of the draws, which do not change
    path.write_text("?\nF?~v_\nC~\n")
    mixed = run_suite("cut-lemma", source=str(path))
    assert [r.get("reason") for r in mixed.records[:2]] == ["empty graph", reason]
    alone = tmp_path / "k4.g6"
    alone.write_text("C~\n")
    assert mixed.records[2:] == run_suite("cut-lemma", source=str(alone)).records


@pytest.mark.parametrize("name", PER_GRAPH_SUITES)
def test_a_seed_is_refused_where_nothing_is_drawn(name, capsys):
    # the report would record a seed that changed nothing
    for seed in (99, -1):
        with pytest.raises(ValueError, match="no seed"):
            run_suite(name, max_n=3, seed=seed)
        assert cli_main(["suite", name, "--max-n", "3", "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no seed" in err


def test_the_drawing_suites_take_a_seed(capsys):
    rep = run_suite("cut-lemma", max_n=4, seed=7)
    assert rep.passed and rep.summary()["seed"] == 7
    assert rep.records != run_suite("cut-lemma", max_n=4).records
    assert cli_main(["suite", "cut-lemma", "--max-n", "4", "--seed", "7"]) == 0
    rep = run_suite("gallai-count", seed=7)
    assert rep.passed and rep.summary()["seed"] == 7


def test_a_non_ascii_byte_in_a_corpus_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"# caf\xc3\xa9\nCr\n\xc3\xa9\n")
    with pytest.raises(FormatError, match=r"corpus\.g6:3: non-printable graph6 byte"):
        run_suite("brooks-alpha", source=str(path))
    assert cli_main(["suite", "brooks-alpha", "--source", str(path)]) == 2
    assert f"error: {path}:3: non-printable" in capsys.readouterr().err
    # a comment line may hold any byte
    path.write_bytes(b"# caf\xc3\xa9\nCr\n")
    assert len(run_suite("brooks-alpha", source=str(path)).records) == 1


def _graphs(max_n):
    """Labelled graphs on at most max_n vertices, disconnected ones included."""
    def on(n):
        pairs = list(itertools.combinations(range(n), 2))
        return st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
            lambda picks: Graph(n, [e for e, pick in zip(pairs, picks) if pick]))

    return st.integers(0, max_n).flatmap(on)


@settings(max_examples=40, deadline=None)
@given(st.lists(_graphs(6), min_size=1, max_size=4))
def test_every_suite_finishes_clean_on_random_graph6_corpora(graphs):
    # gallai-count reads no corpus and rejects a source (next test)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(encode_graph6(g) + "\n" for g in graphs))
        for name in sorted(set(SUITE_NAMES) - {"gallai-count"}):
            rep = run_suite(name, source=path)
            assert rep.passed, (name, [r for r in rep.records if r["verdict"] == "fail"])


def test_gallai_count_rejects_a_graph6_source(tmp_path):
    # it builds its own forests, so a source file would be silently ignored
    path = tmp_path / "corpus.g6"
    path.write_text("?\nBw\n")
    with pytest.raises(ValueError, match="no corpus"):
        run_suite("gallai-count", source=str(path))


def test_gallai_count_rejects_max_n():
    # a corpus size means nothing to a suite that builds its own forests
    for allow_large in (False, True):
        with pytest.raises(ValueError, match="no max_n"):
            run_suite("gallai-count", max_n=50, allow_large=allow_large)


def test_cli_source_for_a_suite_without_corpus_is_usage_error(capsys):
    assert cli_main(["suite", "gallai-count", "--source", "/no/such/file.g6"]) == 2
    assert "no corpus" in capsys.readouterr().err


def test_cli_max_n_for_a_suite_without_corpus_is_usage_error(capsys):
    assert cli_main(["suite", "gallai-count", "--max-n", "50"]) == 2
    assert "no max_n" in capsys.readouterr().err
    assert cli_main(["suite", "gallai-count", "--max-n", "50", "--allow-large"]) == 2


def test_cli_unreadable_corpus_is_usage_error(capsys):
    assert cli_main(["suite", "mic-basics", "--source", "/no/such/file.g6"]) == 2
    assert "error" in capsys.readouterr().err


def test_a_fault_in_a_check_propagates_with_its_graph6(monkeypatch, tmp_path):
    def broken(g):
        raise ValueError("broken check")

    monkeypatch.setattr(harness, "mic", broken)
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nCr\n")
    # not a verdict and not a skip: the run stops, naming the first graph
    with pytest.raises(RuntimeError, match="graph6 Bw: ValueError") as info:
        run_suite("mic-basics", source=str(path))
    assert isinstance(info.value.__cause__, ValueError)
    # nor is it mistaken for a usage error (exit 2) by the CLI
    with pytest.raises(RuntimeError, match="graph6 Bw: ValueError"):
        cli_main(["suite", "mic-basics", "--source", str(path)])


def _meets_hakimi(g, dem):
    """Sum of dem over X <= e(X) + e(X, V - X), for every vertex set X."""
    for x in range(1 << g.n):
        meeting = sum(1 for u, v in g.edges if x >> u & 1 or x >> v & 1)
        if sum(dem[v] for v in range(g.n) if x >> v & 1) > meeting:
            return False
    return True


def test_feasible_demands_match_hakimi():
    graphs = [g for n in range(1, 5) for g in enumerate_graphs(n, connected_only=False)]
    graphs += [make_named("complete", [5]), make_named("cycle", [5]),
               make_named("K4_minus_e")]
    for g in graphs:
        # no demand above the degree is feasible, so one more bounds the box
        box = itertools.product(*[range(d + 2) for d in g.degrees])
        literal = {dem for dem in box if _meets_hakimi(g, dem)}
        assert harness._feasible_demands(g) == literal


def _demands_of_every_orientation(g):
    """The in-degree vectors of all 2^m orientations of g, closed downwards
    one decrement at a time."""
    edges = sorted(g.edges)
    stack = []
    for pick in range(1 << len(edges)):
        indeg = [0] * g.n
        for i, (u, v) in enumerate(edges):
            indeg[v if pick >> i & 1 else u] += 1
        stack.append(tuple(indeg))
    feasible = set()
    while stack:
        vec = stack.pop()
        if vec in feasible:
            continue
        feasible.add(vec)
        for v, x in enumerate(vec):
            if x:
                stack.append(vec[:v] + (x - 1,) + vec[v + 1:])
    return feasible


def test_feasible_demands_match_every_orientation():
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n, connected_only=False)]
    assert len(graphs) == 52
    for g in graphs:
        assert harness._feasible_demands(g) == _demands_of_every_orientation(g)


def test_in_orient_oracle_reports_a_wrong_verdict(monkeypatch, tmp_path):
    real = harness.orient_with_indegrees
    met_by_a_directed_triangle = (1, 1, 1)

    def lying(g, dem):
        if tuple(dem) == met_by_a_directed_triangle:
            return OrientationResult(None, frozenset(range(g.n)), 1)
        return real(g, dem)

    monkeypatch.setattr(harness, "orient_with_indegrees", lying)
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    rep = run_suite("in-orient-oracle", source=str(path))
    assert [r["verdict"] for r in rep.records] == ["fail"]
    assert rep.records[0]["counterexample"] == {
        "demand": [1, 1, 1], "orient": False, "brute": True}


def test_triangle_free_mic_reaches_n10_behind_allow_large():
    with pytest.raises(ValueError, match="allow_large"):
        run_suite("triangle-free-mic", max_n=10)
    rep = run_suite("triangle-free-mic", max_n=10, allow_large=True)
    # one record per connected triangle-free class, n <= 10 (OEIS A024607)
    assert rep.passed and len(rep.records) == 11569


@pytest.mark.parametrize("name, counts", [
    ("mic-basics", {"pass": 12113, "skip": 0, "fail": 0}),
    # the skips are the connected Gallai trees on at most 8 vertices
    ("main-lemma-d0", {"pass": 11825, "skip": 288, "fail": 0}),
], ids=["mic-basics", "main-lemma-d0"])
def test_suite_default_ceiling_covers_every_graph_up_to_n8(name, counts):
    rep = run_suite(name)
    assert rep.counts() == counts
    assert max(parse_graph6(r["graph6"]).n for r in rep.records) == 8


def test_suite_names_stable():
    assert set(SUITE_NAMES) == {
        "brooks-alpha", "mic-basics", "main-lemma-d0", "at-classify",
        "kp-classify", "kernel-game", "in-orient-oracle", "mic-strength",
        "gallai-count", "triangle-free-mic", "edges-4critical",
        "ore-precursors", "cut-lemma",
    }


# -- CLI --------------------------------------------------------------------------


def test_cli_gen_g6(capsys):
    assert cli_main(["gen", "cycle", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_graph6(out) == make_named("cycle", [5])


def test_cli_gen_dot(capsys):
    assert cli_main(["gen", "petersen", "--dot"]) == 0
    assert capsys.readouterr().out.count("--") == 15


def test_cli_gen_error(capsys):
    assert cli_main(["gen", "no_such_family"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_suite_jsonl_and_exit_codes(tmp_path, capsys):
    out_file = tmp_path / "report.jsonl"
    code = cli_main([
        "suite", "mic-basics", "--max-n", "4",
        "--out", str(out_file), "--format", "jsonl",
    ])
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert json.loads(lines[-1])["summary"]["ok"] is True
    stdout_lines = capsys.readouterr().out.strip().split("\n")
    assert len(stdout_lines) == len(lines)


def test_brooks_skips_exactly_the_graphs_with_a_big_clique(default_report, tmp_path):
    # the skip reads min degree n - 1, which means a K_{Δ+1} only in a
    # connected graph; every graph brooks-alpha checks is connected
    reason = "contains a clique on max_degree+1 vertices"

    def check(corpus, records):
        assert [r["graph6"] for r in records] == [encode_graph6(g) for g in corpus]
        for g, r in zip(corpus, records):
            delta = max(g.degrees)
            assert (r.get("reason") == reason) == (clique_number(g) > delta >= 3)

    corpus = [g for n in range(1, 9) for g in enumerate_graphs(n, connected_only=True)]
    check(corpus, default_report("brooks-alpha").records)
    rnd = random.Random(11)
    corpus = []
    while len(corpus) < 150:
        n = rnd.randint(9, 12)
        p = rnd.choice([0.3, 0.6, 0.9, 1.0])
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])
        if g.is_connected():
            corpus.append(g)
    assert sum(clique_number(g) == g.n for g in corpus) > 10
    path = tmp_path / "connected.g6"
    write_graph6_file(path, corpus)
    check(corpus, run_suite("brooks-alpha", source=str(path)).records)


def test_cli_suite_refuses_oversize(capsys):
    assert cli_main(["suite", "mic-basics", "--max-n", "9"]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_cli_cert_validate(tmp_path, capsys):
    c4 = make_named("cycle", [4])
    cert = extract_reducible(c4, c4.degrees, [0, 2])
    payload = {
        "graph6": "Cr",  # C4 in graph6 (0-1-2-3-0)... replaced below
        "f": {str(v): 2 for v in range(4)},
        "certificate": cert.to_json(),
    }
    from kernelpaint import encode_graph6

    payload["graph6"] = encode_graph6(c4)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["cert", "validate", str(path)]) == 0
    assert "valid" in capsys.readouterr().out
    # break it: out-degree bound
    t, h = cert.digraph.arcs[0]
    payload["certificate"]["arcs"] = [[h, t]] + payload["certificate"]["arcs"][1:]
    path.write_text(json.dumps(payload))
    assert cli_main(["cert", "validate", str(path)]) == 1


def test_an_arc_listed_twice_is_refused(tmp_path, capsys):
    # a repeated arc once counted toward the out-degree bound; a certificate
    # lists each arc once, and opposite arcs (a doubled edge) stay allowed
    c4 = make_named("cycle", [4])
    obj = extract_reducible(c4, c4.degrees, [0, 2]).to_json()
    t, h = obj["arcs"][0]
    obj["arcs"].append([t, h])
    twice = re.escape(f"arc ({t},{h}) listed twice")
    with pytest.raises(ValueError, match=twice):
        Digraph(obj["vertices"], map(tuple, obj["arcs"]))
    with pytest.raises(FormatError, match=twice):
        Certificate.from_json(obj)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"graph6": encode_graph6(c4),
                                "f": {str(v): 2 for v in range(4)},
                                "certificate": obj}))
    assert cli_main(["cert", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "listed twice" in err


def test_cli_cert_validate_names_what_is_missing(tmp_path, capsys):
    c4 = make_named("cycle", [4])
    payload = {
        "graph6": encode_graph6(c4),
        "f": {"0": 2, "1": 2, "3": 2},
        "certificate": extract_reducible(c4, c4.degrees, [0, 2]).to_json(),
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["cert", "validate", str(path)]) == 2
    assert "f gives no value for vertex 2" in capsys.readouterr().err
    payload["f"] = [2, 2, 2, 2]
    path.write_text(json.dumps(payload))
    assert cli_main(["cert", "validate", str(path)]) == 2
    assert "field 'f'" in capsys.readouterr().err
    del payload["graph6"]
    path.write_text(json.dumps(payload))
    assert cli_main(["cert", "validate", str(path)]) == 2
    assert "'graph6'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("certificate", [], "a certificate is a JSON object"),
    ("certificate", {"vertices": [0, 2], "arcs": [], "f_h": []}, "malformed certificate"),
    ("graph6", 5, "field 'graph6'"),
    ("f", {"0": [2], "1": 2, "2": 2, "3": 2}, "field 'f'"),
], ids=["certificate-list", "f_h-list", "graph6-int", "f-value-list"])
def test_cli_cert_validate_rejects_malformed_files(tmp_path, capsys, field, value, message):
    c4 = make_named("cycle", [4])
    payload = {
        "graph6": encode_graph6(c4),
        "f": {str(v): 2 for v in range(4)},
        "certificate": extract_reducible(c4, c4.degrees, [0, 2]).to_json(),
    }
    payload[field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    # a usage error (2), never a traceback read as a counterexample (1)
    assert cli_main(["cert", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "kernelpaint.cli", "gen", "complete", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "Bw"


# Each suite with the oracle its verdict reads made to lie: (where the suite
# looks the oracle up, its name, the lie).  Every suite must report the lie
# as a fail record naming a graph.
LYING_ORACLES = {
    "brooks-alpha": (harness, "independence_number", lambda g: 1),
    "mic-basics": (harness, "mic", lambda g: MicResult(0, frozenset())),
    "main-lemma-d0": (harness.PaintabilitySolver, "wins", lambda self, vs, f: False),
    "kernel-game": (harness, "play_paint_game",
                    lambda g, f, painter: GameOutcome("lister", ())),
    "in-orient-oracle": (harness, "_feasible_demands", lambda g: set()),
    "at-classify": (harness, "is_f_AT", lambda g, f: ATDecision(False, None, None)),
    "kp-classify": (harness, "is_f_KP",
                    lambda g, f, allow_supergraph=True: KPDecision(False, None)),
    "mic-strength": (reduce, "mic", lambda g: MicResult(99, frozenset())),
    "gallai-count": (structure, "beta_t", lambda g, t: -g.n),
    "triangle-free-mic": (structure, "mic", lambda g: MicResult(0, frozenset())),
    "edges-4critical": (harness, "is_k_critical", lambda g, k: True),
    "ore-precursors": (harness, "mic", lambda g: MicResult(99, frozenset())),
    # the antecedents hold and the whole graph is refused
    "cut-lemma": (harness.PaintabilitySolver, "wins",
                  lambda self, vs, f: vs != self.g.full_mask()),
}


def test_every_suite_has_a_lying_oracle():
    assert set(LYING_ORACLES) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(LYING_ORACLES))
def test_every_suite_can_fail(name, monkeypatch):
    monkeypatch.setattr(*LYING_ORACLES[name])
    rep = run_suite(name, max_n=None if name == "gallai-count" else 4)
    fails = [r for r in rep.records if r["verdict"] == "fail"]
    assert any(parse_graph6(r.get("graph6", "?")).n for r in fails)


def test_a_lying_oracle_fails_the_command_line(monkeypatch, capsys):
    monkeypatch.setattr(*LYING_ORACLES["edges-4critical"])
    assert cli_main(["suite", "edges-4critical", "--max-n", "4"]) == 1
    assert "ok: False" in capsys.readouterr().out
