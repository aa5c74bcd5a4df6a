import functools

import pytest

import kernelpaint
from kernelpaint import Graph, make_named

# The last report of each suite run at its default ceiling and seed, by suite
# name.  Several tests run a suite there (the digest gate, the default-ceiling
# counts), and one run takes up to 2 s, so the verdict-count table reads the
# report another test made when there is one.  Every caller of ``run_suite``
# still gets a run of its own.
_DEFAULT_REPORTS = {}
_run_suite = kernelpaint.run_suite


@functools.wraps(_run_suite)
def _run_suite_keeping_defaults(name, *args, **kwargs):
    report = _run_suite(name, *args, **kwargs)
    if not args and not kwargs:
        _DEFAULT_REPORTS[name] = report
    return report


kernelpaint.run_suite = _run_suite_keeping_defaults


@pytest.fixture
def default_report():
    """The report of a suite at its default ceiling: the one this session
    made last, or a new run."""
    def report(name):
        return _DEFAULT_REPORTS.get(name) or kernelpaint.run_suite(name)
    return report


@pytest.fixture
def c4():
    return make_named("cycle", [4])


@pytest.fixture
def c5():
    return make_named("cycle", [5])


@pytest.fixture
def k4():
    return make_named("complete", [4])


@pytest.fixture
def k4e():
    return make_named("K4_minus_e")


@pytest.fixture
def petersen():
    return make_named("petersen")


@pytest.fixture
def bowtie():
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
