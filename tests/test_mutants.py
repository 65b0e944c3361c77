"""Each entry of the mutant catalogue (``tests/mutants.py``) still applies:
its old text occurs exactly once in its module, so moving or rewriting the
code it mutates fails here until the entry is updated with it.  Every
module that computes has an entry, so none can lose its last one
unnoticed."""

from pathlib import Path

import pytest

from mutants import CATALOGUE

import galrep

SRC = Path(galrep.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_old_text_occurs_once(mutant):
    assert (SRC / mutant.module).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((TESTS / name).is_file() for name in mutant.tests)


def test_names_are_distinct():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


# the package's entry points, its settings and its error classes compute nothing
UNMUTATED = {"__init__.py", "__main__.py", "config.py", "errors.py"}


def test_every_computing_module_has_an_entry():
    modules = {path.name for path in SRC.glob("*.py")} - UNMUTATED
    assert modules - {m.module for m in CATALOGUE} == set()
