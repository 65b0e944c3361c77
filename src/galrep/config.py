"""Runtime limits for the enumeration-heavy parts of the package.

Budgets are configuration, not constants: every counting entry point takes a
``Budgets`` value (``Budgets()`` when none is given), and each CLI budget
flag sets one field.  Each field bounds work that is actually done: the
coset budget alone decides which (p, n) the twisted count, and so the
consistency gate, takes on.
"""

from __future__ import annotations

from typing import NamedTuple

# entries kept by each of the package's caches (per conductor, per prime, per
# group, per model, per assumption record): the classify inputs under the
# default group bound, p <= 13 and n <= 2, need 5 primes (the Gauss sum and
# the primitive root), 10 models and 18 certified Eisenstein records (the
# assumption text)
CACHE_SIZE = 20


class Budgets(NamedTuple):
    # largest field size scanned exhaustively by the curve counter
    curve_enum: int = 10**7
    # largest field size q = p^n enumerated by the twisted count
    coset_q: int = 10**6
    # largest prime for which groups and character tables are built
    group_p_bound: int = 13

