"""The package namespace: every exported name resolves, none twice, and
every function, method and class of the package is used by the package or
exported by it."""

import ast
from collections import Counter
from pathlib import Path

import galrep

SOURCES = sorted(Path(galrep.__file__).parent.glob("*.py"))


def test_every_export_resolves_once():
    assert [name for name, count in Counter(galrep.__all__).items() if count > 1] == []
    assert [name for name in galrep.__all__ if not hasattr(galrep, name)] == []


# code that only the tests call belongs in tests/oracles.py
def test_every_definition_is_used_or_exported():
    nodes = [node for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))]
    named = set(galrep.__all__)
    for node in nodes:
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(filter(None, (node.name, node.asname)))
    defined = [node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert [name for name in defined if name not in named and not (name.startswith("__") and name.endswith("__"))] == []
