"""Each suite's verdict counts at its default ceiling and seed.

A suite that quietly skips everything, or stops drawing, shows here even
while its report digest is re-baselined.  The thin ones are edges-4critical
and ore-precursors, whose caps leave a few passes.  The reports come from
the ``default_report`` fixture, so a suite the digest gate has already run
at its default ceiling is not run again.
"""

import pytest

from kernelpaint import SUITE_NAMES

# (pass, skip, fail)
DEFAULT_CEILING_COUNTS = {
    "at-classify": (139, 4, 0),
    "brooks-alpha": (12094, 19, 0),
    "cut-lemma": (500, 0, 0),
    "edges-4critical": (3, 994, 0),
    "gallai-count": (3001, 0, 0),
    "in-orient-oracle": (52, 0, 0),
    "kernel-game": (102, 41, 0),
    "kp-classify": (122, 23, 0),
    "main-lemma-d0": (11825, 288, 0),
    "mic-basics": (12113, 0, 0),
    "mic-strength": (998, 0, 0),
    "ore-precursors": (6, 990, 0),
    "triangle-free-mic": (1736, 1, 0),
}


def test_every_suite_has_its_counts():
    assert set(DEFAULT_CEILING_COUNTS) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(DEFAULT_CEILING_COUNTS))
def test_default_ceiling_verdict_counts(name, default_report):
    counts = default_report(name).counts()
    assert (counts["pass"], counts["skip"], counts["fail"]) == DEFAULT_CEILING_COUNTS[name]
