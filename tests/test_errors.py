"""The error classes.  The three coded ones share one base, keep their
codes and messages, and each ends a CLI run in exit 2 with its code in the
error JSON; a failed internal check ends it in exit 4."""

import json

import pytest

import galrep.cli as cli
from galrep.errors import BudgetExceeded, CodedError, GalrepError, InputError, InternalCheckError, UsageError

CODED = [
    (InputError("poly_parse", "cannot parse"), "poly_parse", "cannot parse"),
    (UsageError("bad_variant", "not a coset element"), "bad_variant", "not a coset element"),
    (BudgetExceeded("field size 3^20 exceeds the budget"), "budget_exceeded", "field size 3^20 exceeds the budget"),
]
IDS = [type(error).__name__ for error, _, _ in CODED]


@pytest.mark.parametrize("error,code,message", CODED, ids=IDS)
def test_code_and_message(error, code, message):
    assert (error.code, error.message, str(error), error.args) == (code, message, message, (message,))


def test_class_relations():
    coded = (InputError, UsageError, BudgetExceeded)
    for cls in coded:
        assert issubclass(cls, CodedError) and issubclass(cls, GalrepError)
        assert [other.__name__ for other in coded if other is not cls and issubclass(cls, other)] == []
    assert issubclass(InternalCheckError, GalrepError) and not issubclass(InternalCheckError, CodedError)
    assert not hasattr(InternalCheckError("broken"), "code")


@pytest.mark.parametrize("error,code,message", CODED, ids=IDS)
def test_cli_exit_two_with_the_code(capsys, monkeypatch, error, code, message):
    def raise_it(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_verify", raise_it)
    assert cli.main(["verify", "--p", "3", "--n", "1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": {"code": code, "message": message}}


def test_cli_exit_four_on_a_failed_check(capsys, monkeypatch):
    def raise_it(args):
        raise InternalCheckError("broken")

    monkeypatch.setattr(cli, "_cmd_verify", raise_it)
    assert cli.main(["verify", "--p", "3", "--n", "1"]) == 4
    assert json.loads(capsys.readouterr().out) == {"error": {"code": "internal_check", "message": "broken"}}
