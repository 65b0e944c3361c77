"""Dense univariate polynomials over Q as ascending coefficient lists.

Everything here is exact.  Resultants go through the Sylvester matrix with
Bareiss fraction-free elimination over the integers (denominators are
cleared first and accounted for), which keeps intermediate entries at minor
size instead of exploding.  Newton's identities convert between the
coefficients of a monic integer polynomial and the power sums of its roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Poly = list[Fraction]


def trim(c: Sequence[Fraction]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def derivative(a: Sequence[Fraction]) -> Poly:
    return trim([i * c for i, c in enumerate(a)][1:])


def shift(a: Sequence[Fraction], h: Fraction) -> Poly:
    """Taylor shift: coefficients of a(x + h), integers when a and h are."""
    out = list(a)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += h * out[j + 1]
    return trim(out)


def _bareiss_det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _clear_denominators(a: Sequence[Fraction]) -> tuple[list[int], int]:
    lcm = 1
    for c in a:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in a], lcm


def resultant(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Res(a, b) via the Sylvester determinant (exact)."""
    a, b = trim(a), trim(b)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        return Fraction(0)
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    ia, la = _clear_denominators(a)
    ib, lb = _clear_denominators(b)
    n = da + db
    rows: list[list[int]] = []
    for k in range(db):  # rows of x^k * a
        row = [0] * n
        for i, c in enumerate(ia):
            row[n - 1 - (k + i)] = c
        rows.append(row)
    for k in range(da):  # rows of x^k * b
        row = [0] * n
        for i, c in enumerate(ib):
            row[n - 1 - (k + i)] = c
        rows.append(row)
    det = _bareiss_det(rows)
    return Fraction(det, la**db * lb**da)


def discriminant(a: Sequence[Fraction]) -> Fraction:
    """Discriminant of a nonconstant polynomial, zero iff a has a repeated root."""
    a = trim(a)
    d = len(a) - 1
    res = resultant(a, derivative(a))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res / a[-1]


def power_sums(a: Sequence[int], count: int) -> list[int]:
    """Power sums s_0 .. s_(count-1) of the roots of a monic polynomial.

    Newton's identities, division-free: integer coefficients give integers.
    """
    n = len(a) - 1
    s = [n]
    for k in range(1, count):
        total = k * a[n - k] if k <= n else 0
        for j in range(1, min(k, n + 1)):
            total += a[n - j] * s[k - j]
        s.append(-total)
    return s


def from_power_sums(sums: Sequence[int]) -> list[int]:
    """Monic polynomial of degree n = sums[0] whose roots have power sums sums[1..n].

    Newton's identities in the other direction.  Each division by k is exact
    when the roots are algebraic integers, i.e. when the answer is in Z[x].
    """
    n = sums[0]
    b = [0] * n + [1]
    for k in range(1, n + 1):
        total = sum(b[n - k + i] * sums[i] for i in range(1, k + 1))
        b[n - k] = -total // k
    return b
