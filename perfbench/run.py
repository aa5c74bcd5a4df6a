"""kernelpaint suite benchmark: run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kernelpaint checkout.  Each repetition of a workload
runs in its own fresh, single-threaded Python process (``worker.py``), one
after another, so the enumeration level cache starts cold just as it does
for a command-line user.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` starts repetitions until ``--seconds`` have passed (at least
one; the last may run past it), with a few processes that only do set-up
before each repetition and after the last, and reports medians of the
end-to-end metrics.  Set-up is short, so its samples are spread over the
whole run to average the machine's slow spells rather than catch one.  ``--trace 1`` runs the workload once untraced and once traced
and reports the per-layer metrics.

An operation is one report record; it fails on a ``fail`` verdict, on being
lost to an exception, or on a mismatch with the pinned expected output.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from recorder import clock  # noqa: E402
from worker import LAYERS, WORK_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_REPS = 5      # set-up-only processes before each repetition and after the last
DEADLINE_S = 170.0       # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix in LAYERS:
        units[prefix + "_calls"] = "count"
        units[prefix + "_s"] = "s"
    units.update({
        "graphs.enumerate_self_s": "s",
        "graphs.classes": "count",
        "graphs.class_yield": "ratio",
        "graph6.graphs_read": "count",
        "verify.game_states": "count",
        "verify.solver_states": "count",
        "harness.records": "count",
        "harness.self_s": "s",
        "harness.skips": "count",
        "harness.size_limit_skips": "count",
        "harness.record_samples": "count",
        "harness.record_p50_ms": "ms",
        "harness.record_p99_ms": "ms",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = clock()

    def spawn(self, *extra: str) -> dict:
        remaining = DEADLINE_S - (clock() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        t0 = clock()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--t0", repr(t0), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"worker printed no result:\n{proc.stderr[-4000:]}") from exc


def end_to_end(runner: Runner, seconds: int) -> tuple[list[dict], dict]:
    reps = []
    setups = []
    start = clock()
    while True:
        setups += [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_ONLY_REPS)]
        if reps and clock() - start >= seconds:
            break
        reps.append(runner.spawn())
        setups.append(reps[-1]["setup_s"])
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "records_per_s": statistics.median(
            r["records"] / (r["wall_s"] - r["setup_s"]) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return reps, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(runner: Runner) -> tuple[list[dict], dict]:
    plain = runner.spawn()
    os.makedirs(WORK_DIR, exist_ok=True)
    spans = os.path.join(WORK_DIR, f"{runner.workload}-seed{runner.seed}.spans.jsonl")
    traced = runner.spawn("--spans", spans)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = per_layer_units()
    missing = set(units) ^ set(values)
    if missing:
        raise BenchError(f"per-layer metrics out of step with the units table: {sorted(missing)}")
    return [plain, traced], {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernelpaint suite benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kernelpaint", "__init__.py")):
        print(f"no kernelpaint sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    # turn SIGTERM into an exception so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args.workload, args.seed)
    try:
        reps, metrics = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    for rep in reps:
        for problem in rep["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetition(s)", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
