"""Small exact number-theory helpers used across the package.

Every helper here works on ints: the p-adic valuation of a nonzero int
and the handful of mod-p utilities everything else needs.  A rational
appears only as a coefficient of an input polynomial that is not an
integer, and the p-adic code reads its p-integrality off its denominator.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .config import CACHE_SIZE
from .errors import InputError, UsageError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


def require_odd_prime(p: int) -> None:
    # exactly an int: is_prime(3.0) is True, and a float p fails later, in range and pow
    if type(p) is not int:
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got a {type(p).__name__}")
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")


def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero int.  Anything else raises: the loop
    below would give Fraction(1, p) the valuation 0, not -1."""
    if not x:
        raise UsageError("valuation_of_zero", "v_p(0) is undefined")
    if type(x) is not int:
        raise UsageError("valuation_of_non_int", f"v_p takes an int, got a {type(x).__name__}")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def multiplicative_order(a: int, m: int) -> int:
    """The least k >= 1 with a^k = 1 mod m, for a unit a mod m.  A non-unit
    has none, and the powers of a would never reach 1."""
    a %= m
    if gcd(a, m) != 1:
        raise UsageError("not_a_unit", f"{a} is not a unit mod {m}, so it has no multiplicative order")
    k, x = 1, a
    while x != 1 % m:
        x = x * a % m
        k += 1
    return k


# once per p, as build_group runs on every classify.  Typed, so that a float
# or a bool is never taken for the int it equals and raises as it did uncached
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def smallest_primitive_root(p: int) -> int:
    """The least b whose powers give every nonzero residue mod the prime p.
    A composite p has no unit of order p - 1, and raises after one scan."""
    for b in range(1, p):
        if gcd(b, p) == 1 and multiplicative_order(b, p) == p - 1:
            return b
    raise UsageError("no_primitive_root", f"no unit mod {p} has order {p - 1}")


def legendre_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def signed_p(p: int) -> int:
    """(-1)^((p-1)/2) * p, the one of +-p that is 1 mod 4: the square of the
    quadratic Gauss sum of p."""
    return -p if (p - 1) // 2 % 2 else p


def power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """base^exponent > cap, for base >= 2, without forming a huge power.

    cap < 2^(bit length of cap), so an exponent at least that bit length
    decides the answer before any power is taken.
    """
    if exponent >= cap.bit_length():
        return True
    return base**exponent > cap
