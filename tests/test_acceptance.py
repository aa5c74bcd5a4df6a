"""Acceptance suite: every headline check at full desk scale.

Each test runs one named suite at its contractual corpus size, asserts a
clean report (zero failing records), enforces the stated runtime budget, and
prints one PASS/FAIL line.  Run with ``pytest -v tests/test_acceptance.py``;
add ``-s`` to see the lines stream.
"""

import time

from kernelpaint import run_suite
from kernelpaint.structure import MIC_BOUND_TOLERANCE


def _run(criterion: str, name: str, limit_s: float, **kwargs):
    start = time.perf_counter()
    report = run_suite(name, **kwargs)
    elapsed = time.perf_counter() - start
    summary = report.summary()
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"[{criterion}] {name}: {verdict} "
        f"({summary['passed']} pass / {summary['skipped']} skip, {elapsed:.1f}s)"
    )
    if not report.passed:
        failures = [r for r in report.records if r["verdict"] == "fail"]
        raise AssertionError(f"{name}: {len(failures)} counterexamples, first: {failures[0]}")
    assert elapsed < limit_s, f"{name} took {elapsed:.1f}s, budget {limit_s}s"
    return report


def test_criterion_01_mic_basics():
    # connected n <= 7: mic = n-1 iff Gallai tree, else mic >= n
    _run("criterion 1", "mic-basics", 120, max_n=7)


def test_criterion_02_main_lemma_d0():
    # every connected non-Gallai-tree n <= 7 yields a valid certificate;
    # the game solver confirms the n <= 6 ones
    report = _run("criterion 2", "main-lemma-d0", 600, max_n=7)
    confirmed = sum(1 for r in report.records if r.get("solver_confirmed"))
    assert confirmed > 0


def test_criterion_03_kernel_game():
    # kernel painter beats the exhaustive lister on every certificate, n <= 6
    report = _run("criterion 3", "kernel-game", 600, max_n=6)
    assert all(r.get("losing_line") is None for r in report.records
               if r["verdict"] == "pass")


def test_criterion_04_in_orient_oracle():
    # path-reversal feasibility == brute-force orientation enumeration, all
    # demand tables with g(v) <= d(v), all graphs n <= 5
    report = _run("criterion 4", "in-orient-oracle", 600, max_n=5)
    assert sum(r.get("tables", 0) for r in report.records) > 4000


def test_criterion_05_at_classify():
    # d0-AT iff not a Gallai tree, connected n <= 6 with at most 12 edges
    _run("criterion 5", "at-classify", 900, max_n=6)


def test_criterion_06_kp_classify():
    # exhaustive d0-KP dichotomy at n <= 5, constructive witnesses at n <= 6,
    # and the fixed K4-e pair
    report = _run("criterion 6", "kp-classify", 900, max_n=6)
    phases = {r.get("phase") for r in report.records}
    assert {"fixed-pair-strict", "fixed-pair-supergraph"} <= phases


def test_criterion_07_mic_strength():
    # OC-irreducible implies mic <= 2m - (delta-1)n - 1; tight on C5 and K4
    report = _run("criterion 7", "mic-strength", 900, max_n=7)
    tight = [r for r in report.records if r.get("phase") == "tightness"]
    assert len(tight) == 2 and all(r["verdict"] == "pass" for r in tight)


def test_criterion_08_triangle_free_mic():
    # mic >= (1/4) sum lg d(v) on connected triangle-free graphs, n <= 9
    assert MIC_BOUND_TOLERANCE == 1e-9
    report = _run("criterion 8", "triangle-free-mic", 300, max_n=9)
    checked = sum(1 for r in report.records if r["verdict"] == "pass")
    assert checked > 1700  # 1736 connected triangle-free graphs with delta >= 1


def test_criterion_09_gallai_count():
    # counting inequality on 1000 seeded Gallai forests per k in {6,7,8},
    # including the tight K5 instance
    report = _run("criterion 9", "gallai-count", 600, seed=0)
    assert sum(1 for r in report.records if r.get("phase") == "tight-K5") == 1
    assert sum(1 for r in report.records if "index" in r) == 3000


def test_criterion_10_edges_4critical():
    # 4-critical, max degree <= 4, edgeless high part: the edge count formula
    # holds, n is never divisible by 3, and K4 + Moser spindle show up.
    # 4-regular graphs fall outside the gap-1 derivation; the corpus contains
    # exactly one (the complement of C7) and it genuinely misses the formula,
    # which the suite records as the boundary of the hypothesis.
    report = _run("criterion 10", "edges-4critical", 900, max_n=7)
    coverage = [r for r in report.records if r.get("phase") == "coverage"]
    assert coverage and coverage[0]["found"] == ["K4", "moser_spindle"]
    conforming = [r for r in report.records if r["verdict"] == "pass" and "edges" in r]
    assert {r["edges"] for r in conforming} >= {6, 11}
    boundary = [r for r in report.records
                if r.get("reason") == "4-regular: outside the gap-1 hypothesis"]
    assert len(boundary) == 1
    assert boundary[0]["n"] == 7 and boundary[0]["edges"] == 14 != boundary[0]["formula"]


def test_criterion_11_brooks_alpha():
    # alpha >= n / max_degree for connected n <= 8, max degree >= 3, no
    # clique on max_degree + 1 vertices
    _run("criterion 11", "brooks-alpha", 120, max_n=8)


def test_criterion_12_ore_precursors_and_cut_lemma():
    report = _run("criterion 12a", "ore-precursors", 900, max_n=7)
    reasons = report.summary()["skip_reasons"]
    assert any("min degree" in r or "OC-reducible" in r or "degree" in r
               for r in reasons)
    report = _run("criterion 12b", "cut-lemma", 600, max_n=6, seed=0)
    assert sum(1 for r in report.records) == 500
