"""The package's source, read as syntax: it imports only the standard
library, and no search is a nested function that calls itself."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "kernelpaint").glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_are_found():
    assert {"graphs.py", "orient.py", "verify.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    # pyproject.toml declares no dependencies; relative imports stay inside
    # the package
    tops = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops.add(node.module.split(".")[0])
    assert tops - sys.stdlib_module_names == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_calls_itself(path):
    # such a closure holds a cell that holds the closure: a reference cycle
    # that keeps the search's tables alive until the cyclic collector runs
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    recursive = []
    for outer in ast.walk(_tree(path)):
        if not isinstance(outer, functions):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, functions) and any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for node in ast.walk(inner)):
                recursive.append(f"{outer.name}.{inner.name}")
    assert recursive == []
