"""Byte-identity gate: every suite's default-seed JSONL report is pinned.

A refactor must leave these reports byte for byte unchanged.  A change that
alters a report on purpose re-baselines the affected digests once and says so
in CHANGES.md.  ROADMAP open item 1 will do that, on purpose: emitting each
enumerated class in its canonical labeling picks different representatives.

The main-lemma-d0 and kernel-game digests were re-baselined once when
orientations moved from max flow to path reversal: a feasible demand now gets
a different, equally valid orientation, so certificate arcs and game state
counts changed; with those two fields stripped the reports are unchanged.

Corpora stay small so the whole gate runs in a few seconds: graphs on at most
5 vertices, at most 4 for in-orient-oracle, and gallai-count, which builds its
own random forests, at its default.
"""

import hashlib

import pytest

from kernelpaint import SUITE_NAMES, run_suite

MAX_N = {"in-orient-oracle": 4, "gallai-count": None}

DIGESTS = {
    "at-classify": "822cfa696015a3e957883840ecb8eaf3015f776fa6fb3eeab1bf72b6d5f33d9d",
    "brooks-alpha": "efb8e69260db855123956ff11791519441398b92147a6d7522d413e020061489",
    "cut-lemma": "3293740dccb0ba4a467867351bb7c3f2fef971db6081274fcf9af6ce91002e8d",
    "edges-4critical": "f8e4315aa28504d1e8c40d1fb35a7c952a3bbd6d17db0b60e8b79c562dd911c8",
    "gallai-count": "08b31f3250a2fce7a06873b2c988d82bcd3a4d4963426d9eae2bc11702535b28",
    "in-orient-oracle": "f6ea7d111f73bd94f3a17d136f8ee3329cf20c2b97122d0b18e96eee6882066a",
    "kernel-game": "8fa28b1264934ef5066750e3b9be86e4c02f492ab664d0b13fb4468e97b0b8c9",
    "kp-classify": "7526372ae2104501383d4e61e51ca3176f25645db7ea0157e0925ab3ef66dabc",
    "main-lemma-d0": "a1c80c347008702e957e72af38af47e18fb084ede127d2b6b8f126bd30619588",
    "mic-basics": "773ff4b623029327927fd1aabc20850272831a47fe2d2cff1833121186ba6dfa",
    "mic-strength": "cf00130cc4d1f7223cb9670fc4da8e7bc0c58ebd3b67aad1b139d426a2ebeeaa",
    "ore-precursors": "b14eb8f3fe28f70aa12e875af3c14f0c7354214cd76f08202a83445490287d57",
    "triangle-free-mic": "c1adda3a0190354c521357ff83207915be3f21ff832c97d7e253f7c1c533e1fb",
}


def test_every_suite_is_pinned():
    assert set(DIGESTS) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_default_seed_report_is_byte_identical(name):
    report = run_suite(name, max_n=MAX_N.get(name, 5))
    digest = hashlib.sha256(report.to_jsonl().encode("ascii")).hexdigest()
    assert digest == DIGESTS[name]
