"""Budget configuration."""

import dataclasses

from galrep.config import Budgets


def test_defaults():
    budgets = Budgets()
    assert budgets.curve_enum == 10**7
    assert budgets.coset_q == 10**6
    assert budgets.group_p_bound == 13
    assert len(dataclasses.fields(Budgets)) == 3


def test_budgets_are_immutable():
    assert dataclasses.fields(Budgets)
    try:
        Budgets().curve_enum = 5
        raised = False
    except dataclasses.FrozenInstanceError:
        raised = True
    assert raised
