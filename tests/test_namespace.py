"""What a fresh interpreter loads: ``import galrep`` loads no submodule,
``import galrep.cli`` only the writer and what it needs, each CLI command
loads only the modules it runs (fractions only for a coefficient that is
not an integer, decimal only for text output, which rounds through it),
and the package namespace is bound in one piece on the first use of an
exported name, with ``galrep.classify`` the function however the
submodule of that name was loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galrep

# a child interpreter imports the galrep these tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(galrep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}

LOADED = "sorted(m for m in sys.modules if m == 'galrep' or m.startswith('galrep.'))"


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value, returned here."""
    result = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], capture_output=True, text=True,
                            env=CHILD_ENV, timeout=60, check=True)
    return json.loads(result.stdout)


def loaded_by(argv: list[str]) -> set[str]:
    """The galrep submodules a CLI run of ``argv`` loads, by their short names."""
    code, modules = fresh("import contextlib, io\nimport galrep.cli as cli\n"
                          f"with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main({argv!r})\n"
                          f"print(json.dumps([code, {LOADED}]))")
    assert code in (0, 3), argv
    return {name.partition(".")[2] for name in modules} - {""}


def test_import_galrep_loads_galrep_alone():
    assert fresh(f"import galrep\nprint(json.dumps({LOADED}))") == ["galrep"]


# the writer's one record type is a Cyclotomic, so the CLI loads no other
# module of the pipeline before a command runs
def test_import_cli_loads_the_writer_and_cyclotomic_alone():
    assert fresh(f"import galrep.cli\nprint(json.dumps({LOADED}))") == [
        "galrep", "galrep.cli", "galrep.config", "galrep.cyclotomic", "galrep.errors", "galrep.json_writer"]


CHARTAB = [["chartab", "--p", "7", "--group", "full"], ["chartab", "--p", "5", "--format", "text"]]
COUNT = [["count", "--mode", "curve", "--p", "5", "--m", "2"], ["count", "--mode", "twisted", "--p", "5", "--n", "3"],
         ["count", "--mode", "curve", "--p", "5", "--m", "2", "--format", "text"]]
# even n has no coset trace to count, and a refusal ends before the model is built
UNCOUNTED_CLASSIFY = [["classify", "--p", "5", "--f", "x^5-5", "--n", "2"],
                      ["classify", "--p", "13", "--f", "x^13-13", "--n", "2", "--format", "text"],
                      ["classify", "--p", "5", "--f", "x^5+x+1", "--n", "1"],
                      ["classify", "--p", "5", "--f", "x^5+x+1", "--n", "1", "--format", "text"]]


@pytest.mark.parametrize("argv", CHARTAB, ids=" ".join)
def test_chartab_loads_no_padic_classify_or_counting(argv):
    assert loaded_by(argv) & {"padic", "classify", "counting", "gf", "polys"} == set()


@pytest.mark.parametrize("argv", COUNT, ids=" ".join)
def test_count_loads_neither_padic_nor_classify(argv):
    assert loaded_by(argv) & {"padic", "classify"} == set()


@pytest.mark.parametrize("argv", COUNT, ids=" ".join)
def test_count_loads_no_groups(argv):
    assert "groups" not in loaded_by(argv)


@pytest.mark.parametrize("argv", UNCOUNTED_CLASSIFY, ids=" ".join)
def test_uncounted_classify_loads_no_counter(argv):
    assert loaded_by(argv) & {"counting", "gf"} == set()


def test_odd_classify_loads_the_counter():
    # the guard above would pass on a classify that never counts
    assert {"counting", "gf"} <= loaded_by(["classify", "--p", "5", "--f", "x^5-5", "--n", "1"])


CLASSIFY_IS_THE_FUNCTION = ("import galrep, types\n"
                            "print(json.dumps([type(galrep.classify) is types.FunctionType, "
                            "galrep.classify is sys.modules['galrep.classify'].classify]))")


def test_classify_stays_the_function_after_its_submodule_loads():
    assert fresh("from galrep.classify import ClassificationReport\n" + CLASSIFY_IS_THE_FUNCTION) == [True, True]


def test_classify_stays_the_function_after_the_cli_classifies():
    assert fresh("import contextlib, io\nimport galrep.cli as cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    cli.main(['classify', '--p', '5', '--f', 'x^5-5', '--n', '1'])\n"
                 + CLASSIFY_IS_THE_FUNCTION) == [True, True]


def test_star_import_binds_exactly_all():
    names, exported = fresh("namespace = {}\nexec('from galrep import *', namespace)\nimport galrep\n"
                            "print(json.dumps([sorted(set(namespace) - {'__builtins__'}), galrep.__all__]))")
    assert names == sorted(exported)


def test_dir_covers_all_before_any_use():
    missing, modules = fresh(f"import galrep\nprint(json.dumps([sorted(set(galrep.__all__) - set(dir(galrep))), "
                             f"{LOADED}]))")
    assert (missing, modules) == ([], ["galrep"])


def test_unknown_name_raises_and_loads_nothing():
    assert fresh("import galrep\ntry:\n    galrep.no_such_name\nexcept AttributeError as exc:\n"
                 f"    print(json.dumps([str(exc), {LOADED}]))") == [
        "module 'galrep' has no attribute 'no_such_name'", ["galrep"]]


def test_first_use_binds_every_name():
    # in one piece: no submodule is left to load, and so bind, on a later use
    assert fresh("import galrep\ngalrep.Budgets\nprint(json.dumps(sorted(set(galrep.__all__) - set(vars(galrep)))))") == []


def test_a_name_set_before_the_first_use_stays():
    assert fresh("import galrep\ngalrep.count_curve = 'patched'\ngalrep.Budgets\n"
                 "print(json.dumps(galrep.count_curve))") == "patched"


# fractions imports numbers and decimal, and decimal imports numbers: a
# coefficient that is not an integer needs fractions, and the text output
# rounds through decimal, but no other run loads any of the three
RATIONALS_LOADED_BY = ("import contextlib, io\nimport galrep.cli as cli\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main({argv!r})\n"
                       "print(json.dumps([code, sorted({{'fractions', 'numbers', 'decimal'}} & set(sys.modules))]))")

JSON_RUNS = [["classify", "--p", "5", "--f", "x^5-5", "--n", "1"],
             ["classify", "--p", "5", "--f", "[-5,0,0,0,0,1]", "--n", "1"],
             ["verify"], ["chartab", "--p", "5"], ["count", "--mode", "curve", "--p", "5", "--m", "2"]]


@pytest.mark.parametrize("argv", JSON_RUNS, ids=" ".join)
def test_json_output_loads_no_rationals(argv):
    assert fresh(RATIONALS_LOADED_BY.format(argv=argv)) == [0, []]


def test_text_output_loads_decimal_alone():
    argv = ["classify", "--p", "5", "--f", "x^5-5", "--n", "1", "--format", "text"]
    assert fresh(RATIONALS_LOADED_BY.format(argv=argv)) == [0, ["decimal", "numbers"]]


def test_a_rational_coefficient_loads_fractions():
    argv = ["classify", "--p", "5", "--f", '["-5/2",0,0,"5/3",0,1]', "--n", "1"]
    assert fresh(RATIONALS_LOADED_BY.format(argv=argv)) == [0, ["decimal", "fractions", "numbers"]]
