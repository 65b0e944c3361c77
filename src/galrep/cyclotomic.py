"""Exact arithmetic in the cyclotomic rings Z[zeta_m].

A value is a vector of integers over the power basis
{zeta_m^i : 0 <= i < deg Phi_m}, canonically reduced modulo the m-th
cyclotomic polynomial Phi_m: an element of Z[zeta_m].  Every value the
package forms (character values, the Gauss sum and its powers) is an
algebraic integer, so every value, however it is constructed, refuses a
coordinate or conductor that is not an int and a vector whose length is not
deg Phi_m, and scalar multiplication refuses a factor that is not an int.  The
representation is canonical, so two values are equal exactly when their
coefficient vectors agree.  Addition, subtraction and multiplication are
closed and exact; division is deliberately not provided
(conjugate-multiplication covers every norm-style computation the package
needs).

Operations never mix conductors: an operation on values of two different
conductors is refused.

Phi_m is built prime by prime, one exact division per prime factor of m.
A product is a dense convolution; it, like any sum of powers of zeta_m, is
reduced by folding its exponents mod m and one division by the monic Phi_m,
whose remainder is the reduced vector.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple

from .config import CACHE_SIZE
from .errors import UsageError

@lru_cache(maxsize=CACHE_SIZE)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending, from Phi_1 = x - 1 one prime
    q of m at a time: Phi_(nq)(x) = Phi_n(x^q), over Phi_n(x) unless q | n."""
    if m < 1:
        raise UsageError("bad_conductor", f"conductor must be positive, got {m}")
    poly, n, q = [-1, 1], 1, 1
    while n < m:
        q += 1
        while (m // n) % q == 0:  # q is prime: its smaller factors have left m/n
            spread = [0] * (len(poly) * q - q + 1)
            spread[::q] = poly
            if n % q:
                quotient = _divide(spread, poly)
                if any(spread):
                    raise UsageError("inexact_division", "polynomial division left a remainder")
                spread = quotient
            poly = spread
            n *= q
    return tuple(poly)


def _divide(num: list[int], den) -> list[int]:
    """The quotient of num by the monic den; num is left holding the
    remainder, in its first deg den entries, and zeros above them."""
    d = len(den) - 1
    lower = [(i, c) for i, c in enumerate(den[:d]) if c]  # Phi_m is sparse for most m
    quotient = [0] * (len(num) - d)
    for k in reversed(range(len(quotient))):
        c = num[k + d]
        if c:
            quotient[k] = c
            num[k + d] = 0
            for i, a in lower:
                num[k + i] -= c * a
    return quotient


@lru_cache(maxsize=CACHE_SIZE)
def _unit_circle(m: int, bits: int) -> tuple[tuple[int, int], ...]:
    """(cos, sin) of 2*pi*e/m for e < deg Phi_m, in units of 2^-bits, each
    within one unit for bits >= 8.

    Proof, in units of 2^-w: each // errs by under one unit.  Machin's two
    arctangent sums take under w/4.6 + 1 and w/15.8 + 1 terms and leave tails
    under one unit, so pi is off by under 4w + 40, and the angle t of
    2*pi*a/m, a <= m/2, by under 4w + 41, as are cos t and sin t.  With
    T = t/2^w < 3.5, the k-th Taylor term is off by d_k <= T d_(k-1)/k + 1 < 4,
    and fewer than w terms are summed, as 7^w < w! for w >= 20.  The first
    term left out computed to 0, so it is under 4, and the tail is under 8:
    each later term is at most half the one before, as T/k <= 1/2 for k > 6,
    and below that a term under 4 means T < 1.  So each sum is off by under
    8w + 49 <= 2^(g-1), and rounding off g bits adds at most 1/2.
    """
    g = bits.bit_length() + 8
    w, pi = bits + g, 0
    for x, weight in ((5, 16), (239, -4)):  # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)
        power, j = (1 << w) // x, 0  # 2^w / x^(2j+1)
        while power:
            pi += weight * (-1) ** j * (power // (2 * j + 1))
            power, j = power // (x * x), j + 1
    table = []
    for e in range(len(cyclotomic_polynomial(m)) - 1):
        t, term, k, sums = 2 * min(e, m - e) * pi // m, 1 << w, 0, [0, 0]
        while term:  # exp(i t) = sum (i t)^k / k!
            sums[k % 2] += term if k % 4 < 2 else -term
            k += 1
            term = term * t // (k << w)
        cos, sin = ((s + (1 << g - 1)) >> g for s in sums)
        table.append((cos, sin if 2 * e <= m else -sin))
    return tuple(table)


def _integer(c) -> int:
    if type(c) is not int:
        raise UsageError("non_integer_coefficient", f"coefficients lie in Z, got {c!r}")
    return c


def _reduce(m: int, phi: tuple[int, ...], acc: list[int]) -> tuple[int, ...]:
    """The coordinates of sum acc[e] zeta_m^e: exponents folded mod m, as
    zeta_m^m = 1, then the remainder of one division by Phi_m = phi, skipped
    when no coordinate reaches deg Phi_m."""
    d = len(phi) - 1
    for e in range(m, len(acc)):
        acc[e % m] += acc[e]
    del acc[m:]
    if any(acc[d:]):
        _divide(acc, phi)
    return tuple(acc[:d])


def _reduce_terms(m: int, terms: Mapping[int, int]) -> tuple[int, ...]:
    phi = cyclotomic_polynomial(m)  # first: it refuses a conductor below 1
    acc = [0] * m
    for e, c in terms.items():
        acc[e % m] += c
    return _reduce(m, phi, acc)


class _CyclotomicFields(NamedTuple):
    m: int
    coeffs: tuple[int, ...]


class Cyclotomic(_CyclotomicFields):
    """An element of Z[zeta_m] in the reduced power basis."""

    __slots__ = ()

    def __new__(cls, m: int, coeffs: tuple[int, ...]):
        if type(m) is not int:  # True would pass as 1, and dump_json would write it as True
            raise UsageError("bad_conductor", f"conductor must be an int, got {m!r}")
        d = len(cyclotomic_polynomial(m)) - 1
        if type(coeffs) is not tuple or len(coeffs) != d:
            raise UsageError("bad_coordinates", f"an element of Z[zeta_{m}] is a tuple of {d} "
                             f"coordinates, got {coeffs!r}")
        for c in coeffs:
            _integer(c)
        return tuple.__new__(cls, (m, coeffs))

    # the base class's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, m: int, terms: Mapping[int, int]) -> "Cyclotomic":
        """Sum of c * zeta_m^e over the (exponent -> int coefficient) mapping."""
        return cls(m, _reduce_terms(m, {e: _integer(c) for e, c in terms.items()}))

    @classmethod
    def root_of_unity(cls, m: int, exponent: int) -> "Cyclotomic":
        return cls.from_terms(m, {exponent: 1})

    @classmethod
    def rational(cls, m: int, value: int) -> "Cyclotomic":
        return cls.from_terms(m, {0: value})

    @classmethod
    def zero(cls, m: int) -> "Cyclotomic":
        return cls.from_terms(m, {})

    # -- ring operations ---------------------------------------------------

    def _check_conductor(self, other: "Cyclotomic") -> None:
        if self.m != other.m:
            raise UsageError(
                "conductor_mismatch",
                f"operands have conductors {self.m} and {other.m}",
            )

    # the ring operations build their tuples from lists: tuple() of a
    # generator resizes its result, and CPython keeps up to 2000 freed tuples
    # of each size, so a long run of such calls grows the process by about a
    # megabyte of idle tuples
    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check_conductor(other)
        return Cyclotomic(self.m, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check_conductor(other)
        return Cyclotomic(self.m, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.m, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            c = _integer(other)
            return Cyclotomic(self.m, tuple([a * c for a in self.coeffs]))
        self._check_conductor(other)
        acc = [0] * (2 * len(self.coeffs) - 1)
        nz_other = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nz_other:
                    acc[i + j] += a * b
        return Cyclotomic(self.m, _reduce(self.m, cyclotomic_polynomial(self.m), acc))

    __rmul__ = __mul__  # else the tuple's, and 3 * z would repeat its fields

    def conjugate(self) -> "Cyclotomic":
        """Image under zeta_m -> zeta_m^(-1) (complex conjugation)."""
        terms = {(-e) % self.m: c for e, c in enumerate(self.coeffs) if c}
        return Cyclotomic(self.m, _reduce_terms(self.m, terms))

    # -- queries -----------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> int:
        """The value as an integer, when it lies in Z."""
        if not self.is_rational():
            raise UsageError("not_rational", "value is not a rational number")
        return self.coeffs[0]

    def enclose(self, bits: int) -> tuple[int, int, int]:
        """(re, im, err): the real and imaginary parts of the image under
        zeta_m -> exp(2*pi*i/m), in units of 2^-bits, each within err units of
        the true part, for bits >= 8.  err = sum |coeff|, as each entry of
        ``_unit_circle`` is within one unit."""
        table = _unit_circle(self.m, bits)
        return (sum(c * x for c, (x, _) in zip(self.coeffs, table)),
                sum(c * y for c, (_, y) in zip(self.coeffs, table)), sum(map(abs, self.coeffs)))

