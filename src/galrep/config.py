"""Runtime limits for the enumeration-heavy parts of the package.

Budgets are configuration, not constants: every counting entry point takes a
``Budgets`` value (or uses ``default_budgets()``, which honours the
``GALREP_ENUM_BUDGET`` environment variable for the curve count's cap).
Each field bounds work that is actually done: the coset budget alone decides
which (p, n) the twisted count, and so the consistency gate, takes on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputError


@dataclass(frozen=True)
class Budgets:
    # largest field size scanned exhaustively by the curve counter
    curve_enum: int = 10**7
    # largest field size q = p^n enumerated by the twisted count
    coset_q: int = 10**6
    # largest prime for which groups and character tables are built
    group_p_bound: int = 13


def default_budgets() -> Budgets:
    budgets = Budgets()
    env = os.environ.get("GALREP_ENUM_BUDGET")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise InputError("bad_budget", f"GALREP_ENUM_BUDGET must be an integer, got {env!r}") from None
        budgets = replace(budgets, curve_enum=cap)
    return budgets
