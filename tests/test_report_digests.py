"""Byte-identity gate: every suite's default-seed JSONL report is pinned.

A refactor must leave these reports byte for byte unchanged.  A change that
alters a report on purpose re-baselines the affected digests once and says so
in CHANGES.md.

The main-lemma-d0 and kernel-game digests were re-baselined once when
orientations moved from max flow to path reversal: a feasible demand now gets
a different, equally valid orientation, so certificate arcs and game state
counts changed; with those two fields stripped the reports are unchanged.

Every digest but gallai-count's (it builds its own forests) was re-baselined
once when enumeration moved to canonical deletion: each class now comes in
its canonical labeling and in ascending canonical-key order, so records carry
other graph6 strings in another order.  At every suite's default ceiling the
multiset of (canonical key, verdict, reason) per record was unchanged, except
cut-lemma, which samples the corpus by index; its verdict counts held.

Corpora stay small so the whole gate runs in a few seconds: graphs on at most
5 vertices, at most 4 for in-orient-oracle, and gallai-count, which builds its
own random forests, at its default.  The game suites are also pinned where
their game walks are long: kernel-game and mic-strength at their default
ceilings, and kernel-game on a seeded graph6 file of labelled graphs.  So are
the brute-force deciders at their default ceilings: at-classify (f-AT),
kp-classify (f-KP) and in-orient-oracle (orientations against every demand).
So is edges-4critical, whose one 4-regular 4-critical graph, the complement
of C7, first appears at its default ceiling of 7 vertices.  Its digest was
taken after that graph's record lost the ``phase`` key that had hidden it
from readers setting phase records aside; that was the one change to the
report, and the 5-vertex digest, which the graph does not reach, held.
"""

import hashlib
import random

import pytest

from kernelpaint import SUITE_NAMES, Graph, encode_graph6, run_suite

MAX_N = {"in-orient-oracle": 4, "gallai-count": None}

DIGESTS = {
    "at-classify": "163d19f4f29757793f3383fd5d95872ccdacd7e0eda42443d5a4a3620b331943",
    "brooks-alpha": "cf355cdc424c1816b9726adb1763d86b2e842ccddc5cb57a6ddc493ce773e859",
    "cut-lemma": "79ba347a067a947b7552958c1c903bfda27fdd2242f9da8746b5a6bb166bf7d2",
    "edges-4critical": "9a2483d32198a55feb26fe3912e690d41c5a78ad17e59722fae8455d1f57e5a8",
    "gallai-count": "08b31f3250a2fce7a06873b2c988d82bcd3a4d4963426d9eae2bc11702535b28",
    "in-orient-oracle": "41f21c7093014e854f0b5173c0803ac1ebb7f0fa16874be0641898476c8b1b0c",
    "kernel-game": "050838ddb21ef0de8c38d802c74997e4d76032dfb83d7db8b39e6eb93139a03f",
    "kp-classify": "1c74d67493f418f1768ddc9215f9ef862969ed8e38e4376aeba05550df9f161e",
    "main-lemma-d0": "9f13fe0969f33cb087bcce21e969be4bb5337eb97360e4b1339398ccba692c94",
    "mic-basics": "1efe5db64442fa9b246b8872b3297432d6d1263841758e14ece017fb0c8095d2",
    "mic-strength": "f8daa72096eef8f3fe55654259c55a28ac5a623148a4b23395e8539c7ca82363",
    "ore-precursors": "1918c0667bc713362ae2384f8dbac6abcbcea0daaf599460c5d294a69c4ee990",
    "triangle-free-mic": "9281ee5029915ec6fa538a2a6238723b8ada4d25ca5ec21fa7e5aee3b05f4428",
}


def test_every_suite_is_pinned():
    assert set(DIGESTS) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_default_seed_report_is_byte_identical(name):
    report = run_suite(name, max_n=MAX_N.get(name, 5))
    digest = hashlib.sha256(report.to_jsonl().encode("ascii")).hexdigest()
    assert digest == DIGESTS[name]


DEFAULT_CEILING_DIGESTS = {
    "at-classify": "9bf3828dfb0a4f26f4b308c6d1752d1ab6c4b346077c6eda5992c14c53e7944b",
    "edges-4critical": "e8b41fab0dd44bd69347f31d3c1d5f20f6e22ddae1bed4b0439f7fb27918b4af",
    "in-orient-oracle": "c7f59264249b0fafd4b0ae9551780e042554ee14585ccdc22464634b2a30a4be",
    "kernel-game": "e05246e53cc23532ed798b47ff4034239491aa802185a9d3a930f1005a04c42a",
    "kp-classify": "e0d987a94d66c2694c68dce14f1434585a0dd4f4dfe323c5d0bc942c8f3e2199",
    "mic-strength": "e2fbb70ae5cb75a64b6d417b9fce3fc6b987997e2330c5a07ada2d9e04ca88f7",
}
SEEDED_KERNEL_GAME_DIGEST = "e87d04e6d726292447a3fb2220f0c42939735ff23e0fcdff42a7a9ebffde87f6"


def _digest(report) -> str:
    return hashlib.sha256(report.to_jsonl().encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(DEFAULT_CEILING_DIGESTS))
def test_default_ceiling_report_is_byte_identical(name):
    assert _digest(run_suite(name)) == DEFAULT_CEILING_DIGESTS[name]


def _seeded_graphs(count: int, n: int, seed: int) -> list[Graph]:
    """Connected labelled graphs on n vertices, graph i with about
    (0.3 + 0.5 i / count) n(n-1)/2 edges placed at random."""
    rng = random.Random(seed)
    pairs = [(u, v) for v in range(n) for u in range(v)]
    out = []
    for i in range(count):
        m = round((0.3 + 0.5 * (i + rng.random()) / count) * len(pairs))
        while True:
            g = Graph(n, rng.sample(pairs, m))
            if g.is_connected():
                out.append(g)
                break
    return out


def test_kernel_game_on_a_seeded_graph6_file(tmp_path, monkeypatch):
    # a relative path, since the report records its source
    monkeypatch.chdir(tmp_path)
    lines = [encode_graph6(g) + "\n" for g in _seeded_graphs(20, 7, seed=2015)]
    (tmp_path / "seeded.g6").write_text("".join(lines), encoding="ascii")
    report = run_suite("kernel-game", source="seeded.g6")
    assert report.counts()["fail"] == 0
    assert _digest(report) == SEEDED_KERNEL_GAME_DIGEST
