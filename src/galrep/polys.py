"""Dense univariate integer polynomials as ascending coefficient lists.

Everything here is exact.  Newton's identities convert between the
coefficients of a monic integer polynomial and the power sums of its roots.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalCheckError


def shift(a: Sequence[int], h: int) -> list[int]:
    """Taylor shift: coefficients of a(x + h), integers when a and h are."""
    out = list(a)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += h * out[j + 1]
    return out


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
    when the roots are algebraic integers, i.e. when the answer is in Z[x];
    an inexact one raises InternalCheckError.
    """
    n = sums[0]
    b = [0] * n + [1]
    for k in range(1, n + 1):
        total = sum(b[n - k + i] * sums[i] for i in range(1, k + 1))
        b[n - k], rest = divmod(-total, k)
        if rest:
            raise InternalCheckError(f"Newton's identities divide inexactly by {k}")
    return b
