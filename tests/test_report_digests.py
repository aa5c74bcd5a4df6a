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

Every enumerated-corpus digest was re-baselined once more when enumeration
moved to canonical augmentation: a child is kept or rejected on the spot,
with no canonical key and no deduplication, so each class comes in the
labeling it was built in (its parent's labels, the new vertex last) and in
the order generated, and records again carry other graph6 strings in
another order.  The classes are the same: at every suite's default ceiling
the multiset of (canonical key, verdict, reason) per record was unchanged,
except cut-lemma, which samples the corpus by index; its verdict counts
held.  gallai-count's digest and the seeded kernel-game digest read no
enumerated corpus and held.

The two at-classify digests were re-baselined once when the f-AT witness
became the orientation with the smallest surviving monomial as its
out-degrees, found by path reversal, instead of the first orientation in an
edge-by-edge search: the ``counts`` of 33 of the 99 f-AT records at the
default ceiling changed, and with that field stripped both reports are
unchanged.

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

import pytest

from kernelpaint import SUITE_NAMES, run_suite

MAX_N = {"in-orient-oracle": 4, "gallai-count": None}

DIGESTS = {
    "at-classify": "224abc7b20cc51545009963fe292c57d5021363d0db1dcb98719ebf0d9f2709f",
    "brooks-alpha": "495f8540e034b3eec17c79d47547dc8eae0de116a69ebc888dcfdb36319488cb",
    "cut-lemma": "8fde85b34b534889a57ad7d4ffd06e37fdff925cb37c979da42f9860df6d4254",
    "edges-4critical": "1edb2fc1e8590be51065bbaedf6313c7f2f703577c82097444f6ba116fa6057b",
    "gallai-count": "08b31f3250a2fce7a06873b2c988d82bcd3a4d4963426d9eae2bc11702535b28",
    "in-orient-oracle": "9cb6118e3606b8715f0097abb070d42f91c6883fdeff25bebbb848f7bfdfab32",
    "kernel-game": "11a4e8b4de6f42f488ecae9ec09e676137e1a00092f60195ba60355a288ae745",
    "kp-classify": "41e294ab04f939c87ebbe36d66e530d57a0f9eea84558b52fdfe47ffaf2247e2",
    "main-lemma-d0": "9f8fa92bd064557f210d3148b76b8be360df6350c991cc09f948c37ea5a4dd55",
    "mic-basics": "2b1b8dd88c5dce2e24be934fe1cbbae33fdc91096b62c67619a83532bc96b5a9",
    "mic-strength": "2fc6ac49ea56c8643aa1118048e03ff55260cd3eac52580ce64fedb5c0b23f3f",
    "ore-precursors": "81fbe704cc99acde588bae02483a170f985e1b0bb97b2959dd8cbf783d627342",
    "triangle-free-mic": "d6ab46d91acf49dc9a683d51953f6e0434cb2a8bf9d3003a75afcaf58c719ea8",
}


def test_every_suite_is_pinned():
    assert set(DIGESTS) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_default_seed_report_is_byte_identical(name):
    report = run_suite(name, max_n=MAX_N.get(name, 5))
    digest = hashlib.sha256(report.to_jsonl().encode("ascii")).hexdigest()
    assert digest == DIGESTS[name]


DEFAULT_CEILING_DIGESTS = {
    "at-classify": "7deb8078d5d3a08f191e18ef83b8592a8b666f8b858948fcb00fc094699fab3d",
    "edges-4critical": "3e9a272335c57a8bee79aea8b13caf13863c95b78f1b54164360fa4ece5e1bad",
    "in-orient-oracle": "c6f1e5b835f9d990809ee3d09e7646907fdb1766d36d00f966f9fa9f088ca5ef",
    "kernel-game": "82d6b14f5ffa8348d5e5e652ee394b59ae8c027330af953f82cc5e13a0643efd",
    "kp-classify": "1862fe5f6f615a5d3cd57c81df7718fab3bb2963ceca599cda210343af8f5ee0",
    "mic-strength": "dfc2d13ba76cfacf1d488efb6501ecc38c9616e5d6a4f77d23a72c0265dc74d6",
}
SEEDED_KERNEL_GAME_DIGEST = "e87d04e6d726292447a3fb2220f0c42939735ff23e0fcdff42a7a9ebffde87f6"


def _digest(report) -> str:
    return hashlib.sha256(report.to_jsonl().encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(DEFAULT_CEILING_DIGESTS))
def test_default_ceiling_report_is_byte_identical(name):
    assert _digest(run_suite(name)) == DEFAULT_CEILING_DIGESTS[name]


def test_kernel_game_on_a_seeded_graph6_file(seeded_graph6):
    report = run_suite("kernel-game", source=seeded_graph6)
    assert report.counts()["fail"] == 0
    assert _digest(report) == SEEDED_KERNEL_GAME_DIGEST
