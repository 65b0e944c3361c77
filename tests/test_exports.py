"""The package namespace: every exported name resolves, none twice, and
every function, method and class of the package, exported or not, is used
by the package itself.  The package needs the standard library alone."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import galrep

SOURCES = sorted(Path(galrep.__file__).parent.glob("*.py"))


def test_every_export_resolves_once():
    assert [name for name, count in Counter(galrep.__all__).items() if count > 1] == []
    assert [name for name in galrep.__all__ if not hasattr(galrep, name)] == []


# code that only the tests call belongs in tests/oracles.py; an export is
# no caller, so an exported function the pipeline never calls fails here too
def test_every_definition_is_used_in_the_package():
    nodes = [node for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))]
    named = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(filter(None, (node.name, node.asname)))
    defined = [node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert [name for name in defined if name not in named and not (name.startswith("__") and name.endswith("__"))] == []


# a name is imported where it is used: one only the tests read is imported from where it is defined
@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used_in_its_module(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    assert sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}) == []


# galrep runs on the standard library alone; mpmath, sympy and hypothesis are the tests' tools
def test_every_import_is_standard_library_or_galrep():
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - set(sys.stdlib_module_names) - {"galrep"}) == []


def test_no_runtime_dependency_is_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "mpmath>=1.3" in project["optional-dependencies"]["test"]
