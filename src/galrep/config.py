"""Runtime limits for the enumeration-heavy parts of the package.

Budgets are configuration, not constants: every counting entry point takes a
``Budgets`` value (``DEFAULT_BUDGETS``, formed once, when none is given),
and each CLI budget flag sets one field, which is exactly an int.  Each
field bounds work that is actually done: the coset budget alone decides
which (p, n) the twisted count, and so the consistency gate, takes on.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError

# entries kept by each of the package's caches (per conductor, per prime, per
# group, per model, per gate verdict, per assumption record): the classify
# inputs under the default group bound, p <= 13 and n <= 2, need 5 primes
# (the Gauss sum and the primitive root), 10 models, 5 verdicts (odd n, one
# per (p, n, budgets)) and 18 certified Eisenstein records (the assumption
# text)
CACHE_SIZE = 20


class _BudgetsFields(NamedTuple):
    # largest field size scanned exhaustively by the curve counter
    curve_enum: int = 10**7
    # largest field size q = p^n enumerated by the twisted count
    coset_q: int = 10**6
    # largest prime for which groups and character tables are built
    group_p_bound: int = 13


class Budgets(_BudgetsFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        budgets = super().__new__(cls, *args, **kwargs)
        for name, value in zip(cls._fields, budgets):
            # a float has no bit_length for the budget checks, and a True would be written into a skip reason
            if type(value) is not int:
                raise InputError("budget_not_int", f"budget {name} must be an int, got a {type(value).__name__}")
        return budgets

    # the base class's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


DEFAULT_BUDGETS = Budgets()


def check_p_bound(p: int, p_bound: int) -> None:
    """Refuse a p above the bound for groups and tables.  It is compared
    before p is tested for primality, as trial division on a p of many
    digits would take minutes."""
    if p > p_bound:
        raise InputError("p_beyond_bound", f"p = {p} exceeds the configured bound {p_bound}")
