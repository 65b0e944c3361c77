"""Exact point counts on the reduced model curve y^2 = x^p - x.

Two counters feed the classifier:

* ``count_curve`` scans F_{p^m} and counts affine points of the curve, one
  quadratic character evaluation per x.
* ``count_twisted_fixed`` counts solutions of the twisted fixed-point system

      x^q = x - 1,   y^q = y,   y^2 = x^p - x        (q = p^n, n odd)

  by the coset method: one linear solve yields a root x0 of the first
  equation, the full solution set is the coset x0 + F_q, and for each of
  the q candidates the y-count is 1 + chi(x^p - x) with chi the quadratic
  character of F_q.  This replaces a scan of F_{p^(n*p)} by q evaluations.
* ``naive_twisted_oracle`` re-derives the same count by direct scan, for
  cross-validation only.

Counts depend only on (p, m) resp. (p, n): the classifier relies on the
model curve alone, never on the user's polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import is_odd_prime
from .config import Budgets, default_budgets
from .errors import BudgetExceeded, InputError, InternalCheckError, UsageError
from .gf import FieldSpec, build_field, frobenius_fixed_subfield, frobenius_root_solve


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


def _curve_affine(field: FieldSpec) -> int:
    """Affine points of y^2 = x^p - x over the whole field."""
    p = field.p
    q = field.size
    half = (q - 1) // 2
    one = field.one_t()
    minus_one = field.neg_t(one)
    count = 0
    for index in range(q):
        x = field.element_from_index(index)
        t = field.sub_t(field.pow_t(x, p), x)
        if not any(t):
            count += 1  # y = 0 only
            continue
        s = field.pow_t(t, half)
        if s == one:
            count += 2
        elif s != minus_one:
            raise InternalCheckError("Euler criterion returned a non-sign value")
    return count


def count_curve(p: int, m: int, budgets: Budgets | None = None) -> CountResult:
    """Exact affine count of y^2 = x^p - x over F_{p^m}."""
    budgets = budgets or default_budgets()
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")
    if m < 1:
        raise InputError("bad_degree", f"extension degree must be >= 1, got {m}")
    q = p**m
    if q > budgets.curve_enum:
        raise BudgetExceeded(f"field size {q} exceeds the enumeration budget {budgets.curve_enum}")
    affine = _curve_affine(build_field(p, m))
    total = affine + 1
    return CountResult(p=p, m=m, affine=affine, total=total, trace=q + 1 - total)


def count_twisted_fixed(p: int, n: int, budgets: Budgets | None = None) -> TwistedCountResult:
    """Fixed points of the twisted Frobenius system, by the coset method.

    Requires n odd.  Each coset element x = x0 + c has t = x^p - x in F_q
    (and never 0, which would force x into F_p); the Euler power t^((q-1)/2)
    evaluated in the ambient field both certifies t in F_q* and gives the
    y-count.  The closed form for the resulting trace is asserted before
    returning.
    """
    budgets = budgets or default_budgets()
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")
    if n % 2 == 0 or n < 1:
        raise UsageError("n_must_be_odd", f"the twisted count is only defined for odd n, got {n}")
    q = p**n
    if q > budgets.coset_q:
        raise BudgetExceeded(f"subfield size {q} exceeds the coset budget {budgets.coset_q}")
    field, x0 = frobenius_root_solve(p, n, budgets.solver_np)
    subfield = frobenius_fixed_subfield(field, n)
    one = field.one_t()
    minus_one = field.neg_t(one)
    half = (q - 1) // 2

    # spot-check the root-set structure (x0 + c)^q = (x0 + c) - 1 on a
    # deterministic sample, and t^q = t alongside it
    rng = random.Random(0)
    sample = subfield if q <= 20 else rng.sample(subfield, 20)
    for c in sample:
        x = field.add_t(x0.coeffs, c.coeffs)
        if field.pow_t(x, q) != field.sub_t(x, one):
            raise InternalCheckError("coset member fails x^q = x - 1")
        t = field.sub_t(field.pow_t(x, p), x)
        if field.pow_t(t, q) != t:
            raise InternalCheckError("t = x^p - x escaped the subfield")

    affine = 0
    for c in subfield:
        x = field.add_t(x0.coeffs, c.coeffs)
        t = field.sub_t(field.pow_t(x, p), x)
        if not any(t):
            raise InternalCheckError("t = x^p - x vanished on the coset")
        s = field.pow_t(t, half)
        if s == one:
            affine += 2
        elif s != minus_one:
            raise InternalCheckError("t = x^p - x is not in F_q*")
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
    size = p ** (n * p)
    if size > budgets.naive_enum:
        raise BudgetExceeded(f"field size {size} exceeds the naive-scan budget {budgets.naive_enum}")
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
