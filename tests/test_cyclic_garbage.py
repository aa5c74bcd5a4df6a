"""No search leaves cyclic garbage.

A run under ``gc.DEBUG_SAVEALL`` keeps every object the cyclic collector
would have freed in ``gc.garbage``.  A search that leaves none frees its
tables as soon as it returns, so how much memory a run holds does not
depend on when the collector happens to run.
"""

import gc

import pytest

from kernelpaint import SUITE_NAMES, graphs, run_suite


def _cyclic_garbage(run) -> list:
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_suite_leaves_no_cyclic_garbage(name):
    max_n = None if name == "gallai-count" else 5
    assert _cyclic_garbage(lambda: run_suite(name, max_n=max_n)) == []


def test_kernel_game_on_a_file_leaves_no_cyclic_garbage(seeded_graph6):
    assert _cyclic_garbage(lambda: run_suite("kernel-game", source=seeded_graph6)) == []


def test_enumeration_leaves_no_cyclic_garbage():
    def admits(adj, nb):  # a key of its own, so the levels are built afresh
        return True

    try:
        assert _cyclic_garbage(lambda: graphs._levels(6, admits)) == []
        assert len(graphs._levels(6, admits)) == 156
    finally:
        graphs._LEVELS.pop(admits, None)
