"""Workload definitions, pinned expected outputs and the seeded graph6 inputs.

A workload is a list of ``Job``s that one fresh process runs in order through
the public ``kernelpaint.run_suite``.  Enumerated jobs always run at
``run_suite``'s default seed, so their verdict counts are pinned here; the
benchmark seed reaches the program only through the generated graph6 files.

Run ``python3 perfbench/workloads.py --seed N`` to print the input
properties of each job, including the share of inputs that repeat
an isomorphism class (counted with networkx, which the benchmark itself does
not need).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Job:
    suite: str
    max_n: Optional[int] = None   # enumerated corpus size; None: no enumeration
    input: Optional[str] = None   # key of a generated graph6 file
    # pinned (pass, skip, fail) counts for enumerated jobs
    expect: Optional[tuple[int, int, int]] = None


# Counts measured on the seed commit; ROADMAP item 1 may change class
# representatives, so counts (not report bytes) are pinned.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    # criterion 11: n = 8 enumeration dominates (canonical_key)
    "enum-n8": (
        Job("brooks-alpha", max_n=8, expect=(12094, 19, 0)),
    ),
    # criteria 1-7, 9, 10, 12 at their contractual sizes: the proof pipeline
    "criteria-n7": (
        Job("mic-basics", max_n=7, expect=(996, 0, 0)),
        Job("main-lemma-d0", max_n=7, expect=(890, 106, 0)),
        Job("kernel-game", max_n=6, expect=(102, 41, 0)),
        Job("in-orient-oracle", max_n=5, expect=(52, 0, 0)),
        Job("at-classify", max_n=6, expect=(139, 4, 0)),
        Job("kp-classify", max_n=6, expect=(122, 23, 0)),
        Job("mic-strength", max_n=7, expect=(998, 0, 0)),
        Job("gallai-count", max_n=None, expect=(3001, 0, 0)),
        Job("edges-4critical", max_n=7, expect=(3, 994, 0)),
        Job("ore-precursors", max_n=7, expect=(6, 990, 0)),
        Job("cut-lemma", max_n=6, expect=(500, 0, 0)),
    ),
    # seeded random labelled graphs from graph6 files: no enumeration at all
    "g6-random": (
        Job("brooks-alpha", input="main"),
        Job("main-lemma-d0", input="main"),
        Job("kp-classify", input="main"),
        Job("mic-strength", input="main"),
        Job("kernel-game", input="small"),
    ),
}


@dataclass(frozen=True)
class RandomInputs:
    """Connected labelled random graphs with n cycling through ``sizes`` and
    edge density spread evenly over ``density``.

    Graph i gets density p drawn uniformly from the i-th of ``count`` equal
    strata of the range and exactly round(p * n(n-1)/2) edges, placed
    uniformly at random (connected samples only).  Per-graph cost grows
    steeply with the edge count, so stratifying n and p keeps the total work
    of a file nearly the same from seed to seed while every input changes.
    """

    count: int
    sizes: tuple[int, ...]
    density: tuple[float, float]


G6_INPUTS = {
    "main": RandomInputs(1500, (7, 8), (0.3, 0.8)),
    "small": RandomInputs(20, (7,), (0.3, 0.8)),
}


def random_graph_edges(rng: random.Random, spec: RandomInputs, i: int) -> tuple[int, list]:
    """The i-th graph of a file: one connected sample, by rejection."""
    n = spec.sizes[i % len(spec.sizes)]
    lo, hi = spec.density
    p = lo + (hi - lo) * (i + rng.random()) / spec.count
    pairs = [(a, b) for b in range(1, n) for a in range(b)]
    m = round(p * len(pairs))
    while True:
        edges = rng.sample(pairs, m)
        if _connected(n, edges):
            return n, sorted(edges)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def graph6_line(n: int, edges) -> str:
    """graph6 encoding (n <= 62), written here so the inputs do not depend on
    the program under test."""
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


def generate_lines(seed: int, key: str) -> list[str]:
    spec = G6_INPUTS[key]
    rng = random.Random(f"perfbench:{key}:{seed}")
    return [graph6_line(*random_graph_edges(rng, spec, i)) for i in range(spec.count)]


def write_inputs(seed: int, directory: str, keys) -> dict[str, tuple[str, list[str]]]:
    """Write each generated graph6 file; return key -> (path, lines)."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    for key in keys:
        lines = generate_lines(seed, key)
        path = os.path.join(directory, f"{key}-seed{seed}.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(line + "\n" for line in lines))
        out[key] = (path, lines)
    return out


def input_keys(workload: str) -> list[str]:
    return sorted({job.input for job in WORKLOADS[workload] if job.input})


def job_inputs(kp, seed: int, job: Job) -> list[str]:
    """graph6 of every graph a job checks, in order.

    A file job checks its generated lines.  Any other job is run through
    ``kp.run_suite`` at its default seed and its inputs are read back from the
    graph6 of its records, so seeded inputs (the gallai-count forests, the
    cut-lemma samples) are counted as the program draws them, repeats
    included.
    """
    if job.input:
        return generate_lines(seed, job.input)
    report = kp.run_suite(job.suite, max_n=job.max_n)
    return [r["graph6"] for r in report.records if "graph6" in r]


def input_properties(lines: list[str]) -> dict:
    """Count, n and density range, and the share of inputs whose isomorphism
    class (by ``networkx.is_isomorphic``) already appeared earlier."""
    import warnings

    import networkx as nx

    graphs = [nx.from_graph6_bytes(line.encode()) for line in lines]
    classes: dict[str, list] = {}  # invariant hash -> one graph per class
    repeats = 0
    for g in graphs:
        with warnings.catch_warnings():  # networkx notes its hash changed in 3.5
            warnings.simplefilter("ignore", UserWarning)
            key = nx.weisfeiler_lehman_graph_hash(g)
        bucket = classes.setdefault(key, [])
        if any(nx.is_isomorphic(g, h) for h in bucket):
            repeats += 1
        else:
            bucket.append(g)
    sizes = [g.number_of_nodes() for g in graphs]
    densities = [nx.density(g) for g in graphs]
    return {
        "inputs": len(graphs),
        "n": [min(sizes), max(sizes)],
        "density": [round(min(densities), 3), round(max(densities), 3)],
        "repeated_class_share": round(repeats / len(graphs), 4),
    }


def describe(seed: int) -> dict:
    """Input properties of every job -> {workload: {job: ...}}."""
    from worker import import_program

    kp = import_program()
    out = {}
    for name, jobs in WORKLOADS.items():
        out[name] = {}
        for job in jobs:
            label = f"{job.suite}:{job.input}" if job.input else job.suite
            out[name][label] = input_properties(job_inputs(kp, seed, job))
    return out


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    for name, jobs in describe(parser.parse_args().seed).items():
        for label, props in jobs.items():
            print(name, label, json.dumps(props))
