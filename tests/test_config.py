"""Budget configuration, and the immutability of every record."""

import importlib
from fractions import Fraction

import pytest

import galrep
from galrep.config import DEFAULT_BUDGETS, Budgets
from galrep.errors import InputError

# galrep.classify is the function, so the modules are looked up by name
classify, config, counting, cyclotomic, gf, groups, padic = (
    importlib.import_module(f"galrep.{name}") for name in ("classify", "config", "counting", "cyclotomic", "gf",
                                                            "groups", "padic"))


def test_defaults():
    budgets = Budgets()
    assert budgets.curve_enum == 10**7
    assert budgets.coset_q == 10**6
    assert budgets.group_p_bound == 13
    assert len(Budgets._fields) == 3
    # the one default, which build_group's bound reads too
    assert budgets == DEFAULT_BUDGETS
    assert groups.build_group.__defaults__[-1] == DEFAULT_BUDGETS.group_p_bound


# each entry point with the budgets it is given; none of them reads every field
BUDGETED = {
    "classify": lambda budgets: galrep.classify(padic.InputPolynomial.from_string(5, "x^5-5"), padic.BaseField(5, 1),
                                                budgets),
    "count_curve": lambda budgets: counting.count_curve(3, 2, budgets),
    "count_twisted_fixed": lambda budgets: counting.count_twisted_fixed(3, 1, budgets),
}


# a float has no bit_length, a True was written into a skip reason, and
# a str or None failed on its first comparison
@pytest.mark.parametrize("entry", sorted(BUDGETED))
@pytest.mark.parametrize("value", [1e6, True, "1000000", None], ids=["float", "bool", "str", "None"])
@pytest.mark.parametrize("field", Budgets._fields)
def test_a_budget_that_is_not_an_int_is_refused(field, value, entry):
    with pytest.raises(InputError) as err:
        BUDGETED[entry](Budgets(**{field: value}))
    assert (err.value.code, str(err.value)) == ("budget_not_int",
                                                f"budget {field} must be an int, got a {type(value).__name__}")


def test_replace_keeps_the_check():
    with pytest.raises(InputError) as err:
        DEFAULT_BUDGETS._replace(coset_q=1e6)
    assert err.value.code == "budget_not_int"


def _report():
    return galrep.classify(padic.InputPolynomial.from_string(3, "x^3-3"), padic.BaseField(3, 1))


# one instance of each record class, made the way the package makes it
RECORDS = {
    "Budgets": Budgets,
    "CountResult": lambda: counting.count_curve(3, 1),
    "TwistedCountResult": lambda: counting.count_twisted_fixed(3, 1),
    "Verification": lambda: _report().verification,
    "GroupSummary": lambda: _report().inertia_group,
    "Eigenvalue": lambda: _report().eigenvalues[0],
    "ClassificationReport": _report,
    "GroupSpec": lambda: groups.build_group(3),
    "El": lambda: groups.SIGMA_PHI,
    "ConjClass": lambda: groups.conjugacy_classes(groups.build_group(3))[0],
    "CharacterRow": lambda: _report().psi,
    "AssumptionReport": lambda: _report().assumptions,
    "InputPolynomial": lambda: padic.InputPolynomial(3, (Fraction(-3), Fraction(0), Fraction(0), Fraction(1))),
    "BaseField": lambda: padic.BaseField(3, 1),
    "Cyclotomic": lambda: cyclotomic.Cyclotomic.root_of_unity(5, 1),
    "FieldSpec": lambda: gf.build_field(3, 2),
}


def test_every_record_class_is_checked():
    modules = (classify, config, counting, cyclotomic, gf, groups, padic)
    found = {name for module in modules for name, obj in vars(module).items()
             if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
             and not name.startswith("_")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_budgets_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
