"""Tests of the benchmark's own code: the span recorder, the seeded inputs,
the correctness gate and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import recorder  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

kp = worker.import_program()


def _bindings() -> dict:
    """Every function-valued attribute of every kernelpaint module, plus wins."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is not None and (key == "kernelpaint" or key.startswith("kernelpaint.")):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    out[(key, attr)] = value
    out[("PaintabilitySolver", "wins")] = kp.PaintabilitySolver.__dict__["wins"]
    return out


def _strip_timings(report):
    """Report summary and records without the opt-in timing fields."""
    summary = {k: v for k, v in report.summary().items() if not k.endswith("_s")}
    records = [{k: v for k, v in r.items() if not k.endswith("_ms")} for r in report.records]
    return summary, records


def _jobs(tmp_path):
    inputs = workloads.write_inputs(3, str(tmp_path), ["main"])
    path, lines = inputs["main"]
    with open(path, "w", encoding="ascii") as fh:  # a few graphs keep this fast
        fh.write("".join(line + "\n" for line in lines[:12]))
    return [
        ("brooks-alpha", {"max_n": 6}),
        ("main-lemma-d0", {"max_n": 5}),
        ("kernel-game", {"max_n": 5}),
        ("in-orient-oracle", {"max_n": 4}),
        ("at-classify", {"max_n": 4}),
        ("kp-classify", {"max_n": 4}),
        ("mic-strength", {"max_n": 5}),
        ("cut-lemma", {"max_n": 4}),
        ("main-lemma-d0", {"source": path}),
        ("mic-strength", {"source": path}),
    ]


def test_traced_run_gives_same_reports_and_restores_every_binding(tmp_path):
    jobs = _jobs(tmp_path)
    before = _bindings()
    plain = [_strip_timings(kp.run_suite(name, **kw)) for name, kw in jobs]

    rec = Recorder()
    rec.install()
    try:
        assert kp.graphs.canonical_key is not before[("kernelpaint.graphs", "canonical_key")]
        assert kp.harness.canonical_key is kp.graphs.canonical_key
        assert kp.verify.find_kernel is not before[("kernelpaint.verify", "find_kernel")]
        traced = [_strip_timings(kp.run_suite(name, timings=True, **kw)) for name, kw in jobs]
    finally:
        rec.restore()
    rec.finish()

    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = rec.totals()
    for name in ("harness.run_suite", "orient.is_kernel_perfect", "orient.find_kernel",
                 "verify.painter", "verify.play_paint_game", "reduce.extract_reducible",
                 "orient.orient_with_indegrees", "verify.PaintabilitySolver.wins",
                 "graph6.read_graph6_file", "graph6.encode_graph6", "structure.mic"):
        assert totals[name]["calls"] > 0, name
    assert rec.counters["graph6.graphs_read"] == 24
    assert rec.counters["verify.game_states"] > 0
    assert rec.counters["verify.solver_states"] > 0


def test_self_time_subtracts_children_and_aggregates_leaves(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(recorder, "clock", lambda: float(next(ticks)))
    rec = Recorder(root_start=0.0)              # every clock read is one tick later
    inner = rec.leaf("inner", lambda: None)     # busy 1
    outer = rec.leaf("outer", lambda: inner())  # busy 3, self 2
    top = rec.span("top", lambda: [outer(), outer()])
    top()
    rec.finish()
    totals = rec.totals()
    assert totals["top"] == {"calls": 1, "busy_s": 9.0, "self_s": 3.0}
    assert totals["outer"] == {"calls": 2, "busy_s": 6.0, "self_s": 4.0}
    assert totals["inner"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}
    # the root's one child covered 9 of its ticks
    assert totals["workload"]["self_s"] == totals["workload"]["busy_s"] - 9.0


def test_nested_calls_of_one_name_count_busy_time_once(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(recorder, "clock", lambda: float(next(ticks)))
    rec = Recorder(root_start=0.0)

    def body(depth):
        return wrapped(depth - 1) if depth else None

    wrapped = rec.span("f", body)
    wrapped(2)
    totals = rec.totals()
    assert totals["f"]["calls"] == 3
    assert totals["f"]["busy_s"] == 5.0  # outermost call only: ticks 0..5


def test_generator_span_charges_only_its_resumptions(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(recorder, "clock", lambda: float(next(ticks)))
    rec = Recorder(root_start=0.0)
    seen = []

    def letters():
        yield from "ab"

    gen = rec.generator("g", letters, seen.append)
    consumer = rec.span("consumer", lambda x: x)
    assert [consumer(x) for x in gen()] == ["a", "b"]
    totals = rec.totals()
    assert totals["g"]["calls"] == 1
    assert totals["g"]["busy_s"] == 3.0  # three resumptions of one tick each
    assert totals["consumer"]["calls"] == 2
    assert seen == ["a", "b"]


def test_inputs_are_seeded_and_byte_identical(tmp_path):
    a = workloads.write_inputs(7, str(tmp_path / "a"), ["main", "small"])
    b = workloads.write_inputs(7, str(tmp_path / "b"), ["main", "small"])
    c = workloads.write_inputs(8, str(tmp_path / "c"), ["main", "small"])
    for key in ("main", "small"):
        with open(a[key][0], "rb") as fa, open(b[key][0], "rb") as fb, \
                open(c[key][0], "rb") as fc:
            first, second, other = fa.read(), fb.read(), fc.read()
        assert first == second
        assert first != other
        spec = workloads.G6_INPUTS[key]
        lines = a[key][1]
        assert len(lines) == spec.count
        graphs = kp.read_graph6_file(a[key][0])
        assert [kp.encode_graph6(g) for g in graphs] == lines
        assert all(g.is_connected() and g.n in spec.sizes for g in graphs)
        lo, hi = spec.density
        for g in graphs:
            pairs = g.n * (g.n - 1) // 2
            assert round(lo * pairs) <= g.m <= round(hi * pairs)


def test_repeated_class_share_counts_isomorphic_repeats():
    pytest.importorskip("networkx")
    lines = [workloads.graph6_line(3, [(0, 1), (1, 2)]),
             workloads.graph6_line(3, [(0, 2), (1, 2)]),   # same class as the first
             workloads.graph6_line(3, [(0, 1), (0, 2), (1, 2)])]
    props = workloads.input_properties(lines)
    assert props["inputs"] == 3
    assert props["n"] == [3, 3]
    assert props["repeated_class_share"] == round(1 / 3, 4)


def test_gate_counts_mismatches_as_failures():
    job = workloads.Job("x", max_n=3, expect=(5, 2, 0))

    class Report:
        def __init__(self, verdicts):
            self.records = [{"verdict": v} for v in verdicts]

        def counts(self):
            c = {"pass": 0, "skip": 0, "fail": 0}
            for r in self.records:
                c[r["verdict"]] += 1
            return c

    assert worker.check_enumerated(Report(["pass"] * 5 + ["skip"] * 2), job)[:2] == (7, 0)
    assert worker.check_enumerated(Report(["pass"] * 4 + ["fail"] + ["skip"] * 2), job)[:2] == (7, 1)
    assert worker.check_enumerated(Report(["pass"] * 5 + ["skip"]), job)[:2] == (7, 1)
    assert worker.check_enumerated(Report(["pass"] * 6 + ["skip"] * 2), job)[:2] == (8, 1)

    lines = ["Bw", "Cw"]
    good = Report(["pass", "pass"])
    for r, line in zip(good.records, lines):
        r["graph6"] = line
    assert worker.check_file_job(good, lines)[:2] == (2, 0)
    good.records[1]["graph6"] = "C~"
    assert worker.check_file_job(good, lines)[:2] == (2, 1)
    assert worker.check_file_job(good, lines + ["D~{"])[:2] == (3, 2)


def test_benchmark_json_matches_run_py():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_enumerated_job_is_pinned(name):
    for job in workloads.WORKLOADS[name]:
        assert (job.input is None) == (job.expect is not None)
        if job.input is None:
            assert job.suite in kp.SUITE_NAMES
