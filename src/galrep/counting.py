"""Exact point counts on the reduced model curve y^2 = x^p - x.

Both counters sum 1 + chi(t) over t = x^p - x, with chi the quadratic
character of the field t lies in, and share two pieces:

* x -> x^p - x is F_p-linear, so t is built from the images of basis
  vectors: a Gray-code walk over the coordinates adds one image per step
  and keeps t's digits and index (``_tally``).  An image that vanishes (the
  one of 1, as 1^p = 1) only repeats each t p times and stays out of the
  walk.
* chi is read from a table over element indices, built once per field by
  walking multiplication by a fixed g through the cosets of F_q*
  (``gf.quadratic_character_table``).

So each element costs a few additions and one table lookup.

* ``count_curve`` counts the affine points over F_{p^m}.
* ``count_twisted_fixed`` counts solutions of the twisted fixed-point system

      x^q = x - 1,   y^q = y,   y^2 = x^p - x        (q = p^n, n odd)

  by the coset method: one linear elimination yields a root x0 of the first
  equation and F_q, the full solution set is the coset x0 + F_q, and on it
  t = L(x0) + L(c) with c in F_q, worked in F_q's own coordinates.  This
  replaces a scan of F_{p^(n*p)} by q elements of F_q.
* ``naive_twisted_oracle`` re-derives the same count by direct scan, for
  cross-validation only.

Counts depend only on (p, m) resp. (p, n): the classifier relies on the
model curve alone, never on the user's polynomial.  Budgets are compared
before any field size is formed, and sizes are written as p^k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import is_odd_prime, power_exceeds
from .config import Budgets, default_budgets
from .errors import BudgetExceeded, InputError, InternalCheckError, UsageError
from .gf import Coeffs, FieldSpec, build_field, frobenius_coset


@dataclass(frozen=True)
class CountResult:
    p: int
    m: int
    affine: int
    total: int  # affine + the single point at infinity (deg f odd)
    trace: int  # p^m + 1 - total

    def to_json_dict(self) -> dict:
        return {
            "mode": "curve",
            "p": self.p,
            "m": self.m,
            "affine": self.affine,
            "total": self.total,
            "trace": self.trace,
        }


@dataclass(frozen=True)
class TwistedCountResult:
    p: int
    n: int
    affine_solutions: int
    fixed_points: int  # affine_solutions + the always-fixed point at infinity
    trace_sigma_frob: int  # p^n + 1 - fixed_points

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "affine_solutions": self.affine_solutions,
            "fixed_points": self.fixed_points,
            "trace_sigma_frob": self.trace_sigma_frob,
        }


def _tally(table: bytearray, p: int, base: list[int], images: list[list[int]]) -> list[int]:
    """How often each value of ``table`` occurs at t = base + sum c_i images[i],
    over all c in F_p^len(images); the counts are indexed by table value.

    c walks the p-ary Gray code, where step s adds 1 to coordinate v_p(s),
    so t changes by one image per step; its digits and index are updated
    with additions only.  Vanishing images each multiply the counts by p.
    """
    moving = [w for w in images if any(w)]
    repeat = p ** (len(images) - len(moving))
    # per image: (digit, its step, the index step, the index wrap) at each nonzero digit
    steps = [[(j, wj, wj * p**j, p ** (j + 1)) for j, wj in enumerate(w) if wj] for w in moving]
    t = list(base)
    index = sum(d * p**j for j, d in enumerate(t))
    tally = [0, 0, 0]
    tally[table[index]] += 1
    for s in range(1, p ** len(moving)):
        i, r = 0, s
        while not r % p:
            r //= p
            i += 1
        for j, wj, up, wrap in steps[i]:
            d = t[j] + wj
            index += up
            if d >= p:
                d -= p
                index -= wrap
            t[j] = d
        tally[table[index]] += 1
    return [repeat * c for c in tally]


def _artin_schreier(field: FieldSpec, a: Coeffs) -> Coeffs:
    """L(a) = a^p - a."""
    return field.sub_t(field.pow_t(a, field.p), a)


def _curve_affine(field: FieldSpec) -> int:
    """Affine points of y^2 = x^p - x over the whole field: t = 0 gives one
    point, a nonzero square two, a non-square none."""
    p, m = field.p, field.m
    images = [list(_artin_schreier(field, field.element_from_index(p**i))) for i in range(m)]
    zero, _, square = _tally(field.chi_table(), p, [0] * m, images)
    return zero + 2 * square


def count_curve(p: int, m: int, budgets: Budgets | None = None) -> CountResult:
    """Exact affine count of y^2 = x^p - x over F_{p^m}."""
    budgets = budgets or default_budgets()
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")
    if m < 1:
        raise InputError("bad_degree", f"extension degree must be >= 1, got {m}")
    if power_exceeds(p, m, budgets.curve_enum):
        raise BudgetExceeded(f"field size {p}^{m} exceeds the enumeration budget {budgets.curve_enum}")
    q = p**m
    affine = _curve_affine(build_field(p, m))
    total = affine + 1
    return CountResult(p=p, m=m, affine=affine, total=total, trace=q + 1 - total)


def count_twisted_fixed(p: int, n: int, budgets: Budgets | None = None) -> TwistedCountResult:
    """Fixed points of the twisted Frobenius system, by the coset method.

    Requires n odd.  On the coset x = x0 + c (c in F_q), t = x^p - x is
    L(x0) + L(c), with L(x0) and every L(basis vector) checked to lie in F_q,
    so every t does; t is never 0, which would force x into F_p.  Each x
    contributes 1 + chi(t) points, chi read from F_q's character table.  The
    closed form for the resulting trace is asserted before returning.
    """
    budgets = budgets or default_budgets()
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")
    if n % 2 == 0 or n < 1:
        raise UsageError("n_must_be_odd", f"the twisted count is only defined for odd n, got {n}")
    if power_exceeds(p, n, budgets.coset_q):
        raise BudgetExceeded(f"subfield size {p}^{n} exceeds the coset budget {budgets.coset_q}")
    q = p**n
    field, x0, subfield = frobenius_coset(p, n, budgets.solver_np)
    one = field.one_t()

    # spot-check the root-set structure (x0 + c)^q = (x0 + c) - 1 on a
    # deterministic sample, and t^q = t alongside it
    rng = random.Random(0)
    sample = range(q) if q <= 20 else rng.sample(range(q), 20)
    for index in sample:
        x = field.add_t(x0.coeffs, subfield.element_from_index(index))
        if field.pow_t(x, q) != field.sub_t(x, one):
            raise InternalCheckError("coset member fails x^q = x - 1")
        t = _artin_schreier(field, x)
        if field.pow_t(t, q) != t:
            raise InternalCheckError("t = x^p - x escaped the subfield")

    base = subfield.coords(_artin_schreier(field, x0.coeffs))
    images = [subfield.coords(_artin_schreier(field, vec)) for vec in subfield.basis]
    zero, _, square = _tally(subfield.chi_table(), p, base, images)
    if zero:
        raise InternalCheckError("t = x^p - x vanished on the coset")
    affine = 2 * square
    fixed = affine + 1
    trace = q + 1 - fixed
    sign = -1 if (p - 1) // 2 % 2 else 1
    expected = -((sign * p) ** ((n + 1) // 2))
    if trace != expected:
        raise InternalCheckError(f"twisted trace {trace} differs from the closed form {expected}")
    return TwistedCountResult(p=p, n=n, affine_solutions=affine, fixed_points=fixed, trace_sigma_frob=trace)


def naive_twisted_oracle(p: int, n: int, budgets: Budgets | None = None) -> TwistedCountResult:
    """Independent check of ``count_twisted_fixed`` by direct scan.

    Walks all of F_{p^(n*p)} once, classifying each element e by its q-power
    (e^q = e collects the subfield, e^q = e - 1 the solutions of the first
    equation), then counts y solutions per x by scanning the subfield.
    """
    budgets = budgets or default_budgets()
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")
    if n % 2 == 0 or n < 1:
        raise UsageError("n_must_be_odd", f"the twisted count is only defined for odd n, got {n}")
    if power_exceeds(p, n * p, budgets.naive_enum):
        raise BudgetExceeded(f"field size {p}^{n * p} exceeds the naive-scan budget {budgets.naive_enum}")
    field = build_field(p, n * p)
    q = p**n
    one = field.one_t()
    subfield: set = set()
    solutions = []
    for e in field.elements_t():
        eq = field.pow_t(e, q)
        if eq == e:
            subfield.add(e)
        if eq == field.sub_t(e, one):
            solutions.append(e)
    affine = 0
    for x in solutions:
        t = field.sub_t(field.pow_t(x, p), x)
        affine += sum(1 for y in subfield if field.mul_t(y, y) == t)
    fixed = affine + 1
    return TwistedCountResult(p=p, n=n, affine_solutions=affine, fixed_points=fixed,
                              trace_sigma_frob=q + 1 - fixed)
