"""Budget configuration, including the environment-variable default."""

import dataclasses

import pytest

from galrep.config import Budgets, default_budgets
from galrep.errors import InputError


def test_defaults():
    budgets = default_budgets()
    assert budgets.curve_enum == 10**7
    assert budgets.coset_q == 10**6
    assert budgets.group_p_bound == 13
    assert len(dataclasses.fields(Budgets)) == 3


def test_env_override(monkeypatch):
    monkeypatch.setenv("GALREP_ENUM_BUDGET", "1234")
    budgets = default_budgets()
    # the curve count's cap alone moves
    assert budgets == dataclasses.replace(Budgets(), curve_enum=1234)


def test_env_override_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("GALREP_ENUM_BUDGET", "abc")
    with pytest.raises(InputError) as err:
        default_budgets()
    assert err.value.code == "bad_budget"


def test_budgets_are_immutable():
    assert dataclasses.fields(Budgets)
    try:
        Budgets().curve_enum = 5
        raised = False
    except dataclasses.FrozenInstanceError:
        raised = True
    assert raised
