"""Exact point counts on the reduced model curve y^2 = x^p - x.

Both counters sum 1 + chi(t) over t = x^p - x, with chi the quadratic
character of the field they work in, and go through one helper
(``_artin_schreier_tally``):

* L(x) = x^p - x is F_p-linear, so t = base + L(c) is built from the
  images L(x^i) of the basis vectors: a Gray-code walk over the
  coordinates of c adds one image per step and keeps t's digits and index
  (``_tally``).  L(1) = 0 only repeats each t p times and stays out of the
  walk.
* chi is read from a table over element indices, built once per field by
  walking multiplication by g = x (g = 2 over F_p) through the cosets of
  <g> in F_q*, each step one read of a successor table of element indices
  (``FieldSpec.chi_table``).

So each element costs a few additions and one table lookup.

* ``count_curve`` counts the affine points over F_{p^m}: base 0.
* ``count_twisted_fixed`` counts solutions of the twisted fixed-point system

      x^q = x - 1,   y^q = y,   y^2 = x^p - x        (q = p^n, n odd)

  inside F_q itself, with a base a of trace -1: the values of t on the
  solutions x are a + L(c), c in F_q (the trace lemma in its docstring).
* ``naive_twisted_oracle`` re-derives the same count by direct scan of
  F_{p^(n*p)}, for cross-validation only.

Counts depend only on (p, m) resp. (p, n): the classifier relies on the
model curve alone, never on the user's polynomial.  Budgets are compared
before any field size is formed, and before p is tested for primality (a
budget bounds p, so the trial division stays cheap; a p below 3 has no
size p^k to compare and goes straight to that test); sizes are written as
p^k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import power_exceeds, require_odd_prime
from .config import Budgets, default_budgets
from .errors import BudgetExceeded, InputError, InternalCheckError, UsageError
from .gf import Coeffs, FieldSpec, build_field
from .polys import power_sums


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


def _artin_schreier_tally(field: FieldSpec, base: Coeffs) -> list[int]:
    """How often t = base + L(c), L(c) = c^p - c, c over the whole field, is
    zero, a non-square and a nonzero square, in that order."""
    p = field.p
    basis = [field.element_from_index(p**i) for i in range(field.m)]
    images = [list(field.sub_t(field.pow_t(v, p), v)) for v in basis]
    return _tally(field.chi_table(), p, list(base), images)


def count_curve(p: int, m: int, budgets: Budgets | None = None) -> CountResult:
    """Exact affine count of y^2 = x^p - x over F_{p^m}: t = 0 gives one
    point, a nonzero square two, a non-square none."""
    budgets = budgets or default_budgets()
    if m < 1:
        raise InputError("bad_degree", f"extension degree must be >= 1, got {m}")
    if p > 2 and power_exceeds(p, m, budgets.curve_enum):
        raise BudgetExceeded(f"field size {p}^{m} exceeds the enumeration budget {budgets.curve_enum}")
    require_odd_prime(p)
    zero, _, square = _artin_schreier_tally(build_field(p, m), (0,) * m)
    affine = zero + 2 * square
    total = affine + 1
    return CountResult(p=p, m=m, affine=affine, total=total, trace=p**m + 1 - total)


def _base_of_trace_minus_one(field: FieldSpec) -> Coeffs:
    """An a in F_q with Tr(a) = -1, Tr the trace to F_p.

    Tr(x^i) is the i-th power sum of the roots of the modulus, so a is
    x^i / -Tr(x^i) for the first i with Tr(x^i) != 0; one exists, as Tr is
    onto and the x^i span F_q.
    """
    p = field.p
    for i, trace in enumerate(power_sums(field.modulus, field.m)):
        if trace % p:
            a = [0] * field.m
            a[i] = -pow(trace, -1, p) % p
            return tuple(a)
    raise InternalCheckError("the trace vanishes on every basis vector")


def _trace(field: FieldSpec, a: Coeffs) -> Coeffs:
    """Tr(a) = a + a^p + ... + a^(p^(m-1)), summed in the field."""
    total, conjugate = a, a
    for _ in range(field.m - 1):
        conjugate = field.pow_t(conjugate, field.p)
        total = field.add_t(total, conjugate)
    return total


def count_twisted_fixed(p: int, n: int, budgets: Budgets | None = None) -> TwistedCountResult:
    """Fixed points of the twisted Frobenius system, counted inside F_q.

    Requires n odd.  Put L(x) = x^p - x.  If L(x) = t, then by induction
    x^(p^k) = x + t + t^p + ... + t^(p^(k-1)), so for t in F_q,
    x^q = x + Tr(t), Tr the trace of F_q to F_p; and a solution of
    x^q = x - 1 has L(x)^q = L(x - 1) = L(x), so its t lies in F_q.  The
    solutions of x^q = x - 1 are therefore the p roots of L(x) = t for each
    t in F_q with Tr(t) = -1 (Lidl and Niederreiter, *Finite Fields*,
    ch. 2).  L maps F_q onto ker Tr with kernel F_p, so these t are
    a + L(c) for one a with Tr(a) = -1, as c runs over F_q, each t hit p
    times: the tally over c counts every solution x once, and each x
    contributes 1 + chi(t) points.  Tr(a) = -1 is re-verified from a's
    conjugates, and t = 0 (of trace 0) must never occur.  The result is
    the plain count: ``classify.verify_consistency`` compares it with the
    prediction and the closed form.  The coset budget caps q.
    """
    budgets = budgets or default_budgets()
    if n % 2 == 0 or n < 1:
        raise UsageError("n_must_be_odd", f"the twisted count is only defined for odd n, got {n}")
    if p > 2 and power_exceeds(p, n, budgets.coset_q):
        raise BudgetExceeded(f"subfield size {p}^{n} exceeds the coset budget {budgets.coset_q}")
    require_odd_prime(p)
    field = build_field(p, n)
    a = _base_of_trace_minus_one(field)
    if _trace(field, a) != field.scalar_t(-1):
        raise InternalCheckError("the base of the count does not have trace -1")
    zero, _, square = _artin_schreier_tally(field, a)
    if zero:
        raise InternalCheckError("t = x^p - x vanished on a solution of x^q = x - 1")
    affine = 2 * square
    fixed = affine + 1
    return TwistedCountResult(p=p, n=n, affine_solutions=affine, fixed_points=fixed, trace_sigma_frob=p**n + 1 - fixed)


def naive_twisted_oracle(p: int, n: int, budgets: Budgets | None = None) -> TwistedCountResult:
    """Independent check of ``count_twisted_fixed`` by direct scan.

    Walks all of F_{p^(n*p)} once, classifying each element e by its q-power
    (e^q = e collects the subfield, e^q = e - 1 the solutions of the first
    equation), then counts y solutions per x by scanning the subfield.
    """
    budgets = budgets or default_budgets()
    if n % 2 == 0 or n < 1:
        raise UsageError("n_must_be_odd", f"the twisted count is only defined for odd n, got {n}")
    if p > 2 and power_exceeds(p, n * p, budgets.naive_enum):
        raise BudgetExceeded(f"field size {p}^{n * p} exceeds the naive-scan budget {budgets.naive_enum}")
    require_odd_prime(p)
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
