"""Exact point counts on the reduced model curve y^2 = x^p - x.

Both counters sum 1 + chi(t) over t = x^p - x (plus a constant), with chi
the quadratic character of the field they work in, and go through one
helper (``_artin_schreier_tally``):

* L(x) = x^p - x is F_p-linear with kernel F_p, and its image is the
  kernel of the trace Tr to F_p (the additive Hilbert 90).  So a + L(x),
  x over F_q, runs over the fiber {Tr t = Tr a}, each t hit p times.  The
  fiber is an indicator over element indices, built one base-p digit at a
  time from the traces Tr(x^j), the power sums of the modulus: each level
  is joined rotations or repeats of the last, so no Python code runs per
  element (``_trace_fiber``).
* chi is read from a table over element indices, built once per field by
  walking multiplication by g = x (g = 2 over F_p) through the cosets of
  <g> in F_q*, each step one read of a successor table of element indices,
  with chi of g and of each coset seed the Legendre symbol of its norm, a
  resultant by Euclid (``FieldSpec.chi_table``).  ``itertools.compress``
  picks the table's values on the fiber, and ``bytes.count`` tallies them.

* ``count_curve`` counts the affine points over F_{p^m}: the fiber Tr t = 0.
* ``count_twisted_fixed`` counts solutions of the twisted fixed-point system

      x^q = x - 1,   y^q = y,   y^2 = x^p - x        (q = p^n, n odd)

  inside F_q itself, on the fiber Tr t = -1 (the trace lemma in its
  docstring).

Counts depend only on (p, m) resp. (p, n): the classifier relies on the
model curve alone, never on the user's polynomial.  Budgets are compared
before any field size is formed, and before p is tested for primality (a
budget bounds p, so the trial division stays cheap; a p below 3 has no
size p^k to compare and goes straight to that test); sizes are written as
p^k.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple, Sequence

from .arith import power_exceeds, require_odd_prime
from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, InputError, InternalCheckError, UsageError
from .gf import Coeffs, FieldSpec, build_field
from .polys import power_sums


class CountResult(NamedTuple):
    p: int
    m: int
    affine: int
    total: int  # affine + the single point at infinity (deg f odd)
    trace: int  # p^m + 1 - total

    def to_json_dict(self) -> dict:
        return {"mode": "curve", **self._asdict()}


class TwistedCountResult(NamedTuple):
    p: int
    n: int
    affine_solutions: int
    fixed_points: int  # affine_solutions + the always-fixed point at infinity
    trace_sigma_frob: int  # p^n + 1 - fixed_points

    def to_json_dict(self) -> dict:
        return {"mode": "twisted", **self._asdict()}


def _trace_fiber(p: int, traces: Sequence[int], c: int) -> bytes:
    """The indicator over element indices of {t : Tr t = c}, given the traces
    s_j = Tr(x^j) of the basis: element i = sum d_j x^j, d_j the base-p
    digits of i, has trace sum d_j s_j mod p.

    Level k is the indicator of sum_(j<k) d_j s_j = r over the indices below
    p^k, one row per residue r, its p rows joined in one bytes in the order
    r = 0, -u, -2u, ..., for u the first nonzero s_j with j >= k (u = 1 if
    there is none).  A digit with s_k = u makes row -e u of the next level
    the joined level rotated by e p^k bytes; a digit with s_k = 0 repeats
    each row p times.  The last digit builds row c alone, so no level holds
    more than p^len(traces) bytes, and each takes O(p) slices.
    """
    traces = [s % p for s in traces]
    level = b"\x01" + bytes(p - 1)  # sum over no digits: only residue 0 at index 0
    width = 1
    u = next((s for s in traces if s), 1)
    for k, s in enumerate(traces):
        inverse = pow(u, -1, p)
        if k + 1 < len(traces):
            u = next((t for t in traces[k + 1:] if t), 1)
            spots = [d * u * inverse % p for d in range(p)]  # row -d u of the next level
        else:
            spots = [-c * inverse % p]  # row c alone
        view = memoryview(level)
        if s:
            level = b"".join(chain.from_iterable((view[e * width:], view[:e * width]) for e in spots))
        else:
            level = b"".join(bytes(view[e * width:(e + 1) * width]) * p for e in spots)
        width *= p
    return level


def _artin_schreier_tally(field: FieldSpec, c: int) -> list[int]:
    """How often t = a + L(x), L(x) = x^p - x, x over the whole field, is
    zero, a non-square and a nonzero square, in that order, for any a of
    trace c: t runs over the fiber {Tr t = c}, each t hit p times.

    The fiber must hold q/p elements, and its last element must have
    trace c, summed from its conjugates by the Frobenius matrix: the power
    sums that built the fiber and the matrix are checked against each other.
    The last, not the first: the first element of the fiber of trace 0 is 0
    itself, of trace 0 under any matrix, so the curve count would check
    nothing.
    """
    p, q = field.p, field.size
    table = field.chi_table()
    fiber = _trace_fiber(p, power_sums(field.modulus, field.m), c)
    if fiber.count(1) != q // p:
        raise InternalCheckError(f"the fiber of trace {c} does not hold q/p elements")
    if _trace(field, field.element_from_index(fiber.rindex(1))) != field.scalar_t(c):
        raise InternalCheckError(f"the fiber of trace {c} ends at an element of another trace")
    values = bytes(compress(table, fiber))
    return [p * values.count(v) for v in range(3)]


def count_curve(p: int, m: int, budgets: Budgets | None = None) -> CountResult:
    """Exact affine count of y^2 = x^p - x over F_{p^m}: t = 0 gives one
    point, a nonzero square two, a non-square none."""
    budgets = budgets or DEFAULT_BUDGETS
    if type(m) is not int:  # the result writes m by its type: a True would be true
        raise InputError("bad_degree", f"extension degree must be an int, got a {type(m).__name__}")
    if m < 1:
        raise InputError("bad_degree", f"extension degree must be >= 1, got {m}")
    if p > 2 and power_exceeds(p, m, budgets.curve_enum):
        raise BudgetExceeded(f"field size {p}^{m} exceeds the enumeration budget {budgets.curve_enum}")
    require_odd_prime(p)
    zero, _, square = _artin_schreier_tally(build_field(p, m), 0)
    affine = zero + 2 * square
    total = affine + 1
    return CountResult(p=p, m=m, affine=affine, total=total, trace=p**m + 1 - total)


def _trace(field: FieldSpec, a: Coeffs) -> Coeffs:
    """Tr(a) = a + a^p + ... + a^(p^(m-1)), summed in the field."""
    total = conjugate = a
    for _ in range(field.m - 1):
        conjugate = field.frob_t(conjugate)
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
    times: the tally over the fiber Tr t = -1, times p, counts every
    solution x once, and each x contributes 1 + chi(t) points.  t = 0 (of
    trace 0) must never occur.  The result is the plain count:
    ``classify.verify_consistency`` compares it with the prediction and the
    closed form.  The coset budget caps q.
    """
    budgets = budgets or DEFAULT_BUDGETS
    if type(n) is not int:  # the result writes n by its type: a True would be true
        raise UsageError("n_must_be_odd", f"the twisted count needs an odd int n, got a {type(n).__name__}")
    if n % 2 == 0 or n < 1:
        raise UsageError("n_must_be_odd", f"the twisted count is only defined for odd n, got {n}")
    if p > 2 and power_exceeds(p, n, budgets.coset_q):
        raise BudgetExceeded(f"subfield size {p}^{n} exceeds the coset budget {budgets.coset_q}")
    require_odd_prime(p)
    zero, _, square = _artin_schreier_tally(build_field(p, n), -1)
    if zero:
        raise InternalCheckError("t = x^p - x vanished on a solution of x^q = x - 1")
    affine = 2 * square
    fixed = affine + 1
    return TwistedCountResult(p=p, n=n, affine_solutions=affine, fixed_points=fixed, trace_sigma_frob=p**n + 1 - fixed)

