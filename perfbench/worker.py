"""Run one workload in this (fresh, single-threaded) process and print one
JSON line with its measurements.

Started by ``run.py``; ``--t0`` is run.py's monotonic clock reading just
before it started this process, so ``setup_s`` and ``wall_s`` include
interpreter start-up.  With ``--spans PATH`` the run is traced: the recorder
wraps kernelpaint's public functions, and the per-layer breakdown is added
to the output while the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

from recorder import Recorder, clock  # noqa: E402
from workloads import WORKLOADS, input_keys, write_inputs  # noqa: E402

# per-layer metric prefix -> traced function names whose calls it sums
LAYERS = {
    "graphs.enumerate": ("graphs.enumerate_graphs", "graphs.enumerate_triangle_free"),
    "graphs.canonical_key": ("graphs.canonical_key",),
    "graphs.independent_set": ("graphs.max_weight_independent_set",),
    "graph6.read": ("graph6.read_graph6_file",),
    "graph6.encode": ("graph6.encode_graph6",),
    "structure.gallai": ("structure.is_gallai_tree", "structure.is_gallai_forest"),
    "structure.mic": ("structure.mic",),
    "orient.flow": ("orient.orient_with_indegrees",),
    "orient.kp_check": ("orient.is_kernel_perfect",),
    "orient.kp_search": ("orient.is_f_KP",),
    "orient.eulerian": ("orient.alon_tarsi_diff",),
    "orient.kernel": ("orient.find_kernel",),
    "verify.game": ("verify.play_paint_game",),
    "verify.painter": ("verify.painter",),
    "verify.solver": ("verify.PaintabilitySolver.wins",),
    "reduce.extract": ("reduce.extract_reducible",),
    "reduce.oc": ("reduce.is_oc_reducible",),
}


def import_program():
    """Import kernelpaint from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import kernelpaint

    if not os.path.abspath(kernelpaint.__file__).startswith(src + os.sep):
        raise ImportError(f"kernelpaint imported from {kernelpaint.__file__}, not {src}")
    return kernelpaint


def check_enumerated(report, job) -> tuple[int, int, str]:
    """Attempted, failed and a problem note for a job with pinned counts."""
    got = report.counts()
    seen = (got["pass"], got["skip"], got["fail"])
    total = len(report.records)
    expected_total = sum(job.expect)
    # records that must differ for the counts to move from expect to seen
    mismatch = (sum(abs(a - b) for a, b in zip(seen, job.expect))
                + abs(total - expected_total)) // 2
    failed = max(got["fail"], mismatch)
    note = "" if seen == job.expect else f"counts {seen}, pinned {job.expect}"
    return max(total, expected_total), failed, note


def check_file_job(report, lines: list[str]) -> tuple[int, int, str]:
    """Zero fail, and exactly one record per input graph, carrying its graph6."""
    per_graph = [r for r in report.records if "phase" not in r]
    failed = sum(1 for r in report.records if r["verdict"] == "fail")
    failed += sum(1 for r, line in zip(per_graph, lines)
                  if r.get("graph6") != line and r["verdict"] != "fail")
    failed += abs(len(per_graph) - len(lines))
    attempted = len(report.records) + max(0, len(lines) - len(per_graph))
    note = ""
    if failed:
        note = f"{failed} bad records ({len(per_graph)} per-graph for {len(lines)} inputs)"
    return attempted, failed, note


def run_job(kp, job, inputs, timings: bool):
    source = inputs[job.input][0] if job.input else None
    try:
        report = kp.run_suite(job.suite, source=source, max_n=job.max_n, timings=timings)
    except Exception as exc:  # a crash loses the whole suite; count it and go on
        expected = len(inputs[job.input][1]) if job.input else sum(job.expect)
        return None, max(expected, 1), max(expected, 1), f"{type(exc).__name__}: {exc}"
    if job.input:
        attempted, failed, note = check_file_job(report, inputs[job.input][1])
    else:
        attempted, failed, note = check_enumerated(report, job)
    return report, attempted, failed, note


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, nonempty list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(rec: Recorder, reports: list) -> dict[str, float]:
    totals = rec.totals()

    def total(names, field):
        return sum(totals.get(name, {}).get(field, 0) for name in names)

    out: dict[str, float] = {}
    for prefix, names in LAYERS.items():
        out[prefix + "_calls"] = total(names, "calls")
        out[prefix + "_s"] = total(names, "busy_s")
    out["graphs.enumerate_self_s"] = total(LAYERS["graphs.enumerate"], "self_s")
    out.update(rec.counters)
    keys = out["graphs.canonical_key_calls"]
    out["graphs.class_yield"] = out["graphs.classes"] / keys if keys else 0.0
    out["harness.self_s"] = sum(row["self_s"] for name, row in totals.items()
                                if name.startswith("harness."))
    records = [r for report in reports for r in report.records]
    skips = [r for r in records if r["verdict"] == "skip"]
    elapsed = sorted(r["elapsed_ms"] for r in records)
    out["harness.records"] = len(records)
    out["harness.skips"] = len(skips)
    out["harness.size_limit_skips"] = sum(
        1 for r in skips if str(r.get("reason", "")).startswith("size limit"))
    out["harness.record_samples"] = len(elapsed)
    out["harness.record_p50_ms"] = percentile(elapsed, 50)
    out["harness.record_p99_ms"] = percentile(elapsed, 99)
    out["trace.unattributed_s"] = totals["workload"]["self_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kp = import_program()
    inputs = write_inputs(args.seed, WORK_DIR, input_keys(args.workload))
    setup_end = clock()
    result = {"setup_s": setup_end - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    traced = args.spans is not None
    rec = None
    if traced:
        rec = Recorder(root_start=args.t0)
        rec.add_span("setup", args.t0, setup_end)
        rec.install()
    attempted = failed = records = 0
    problems = []
    reports = []
    try:
        for job in WORKLOADS[args.workload]:
            report, n_attempted, n_failed, note = run_job(kp, job, inputs, traced)
            attempted += n_attempted
            failed += n_failed
            if note:
                problems.append(f"{job.suite}: {note}")
            if report is not None:
                records += len(report.records)
                if traced:
                    reports.append(report)
        end = clock()
    finally:
        if rec is not None:
            rec.restore()
    result.update(
        wall_s=end - args.t0,
        records=records,
        attempted=attempted,
        failed=failed,
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if traced:
        rec.finish(end)
        result["layers"] = layer_metrics(rec, reports)
        rec.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
