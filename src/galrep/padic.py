"""Exact p-adic analysis of the input polynomial.

Inputs are monic degree-p polynomials with p-integral rational
coefficients.  Every hypothesis for a maximal inertia image is a property
of f alone, the same over every unramified base field: a totally-ramified
irreducibility certificate, the all-root-differences-share-one-valuation
check (equivalently: the roots form a single cluster, so the curve
y^2 = f(x) has potentially good reduction), and v(disc f) coprime to p-1.
This module decides them, and the conductor exponent in the monogenic case.

All the work runs on one integer model of f: M(x) = d^p f(x/d), with d the
lcm of the coefficient denominators, which is prime to p.  M is monic in
Z[x], has the valuations of f's coefficients, roots and root differences,
and M(x + dc) = d^p f(x/d + c) for every c.  Even the certificate's shift
c = -f(0) mod p is read off M: f(0) = M(0)/d^p and d^p = d mod p, so
c = -M(0)/d mod p.

Irreducibility is certificate-based: a one-segment Newton polygon with
slope denominator exactly p (for f itself or an integer shift of it) proves
f irreducible over every unramified extension of Q_p with K(root)/K totally
ramified of degree p.  Anything else is reported as "undetermined", never
as reducible; classification refuses to proceed on an undetermined
certificate.

A certified f is decided from coefficient valuations alone: all its root
differences share one valuation w, which the ramification polygon gives
(Greve and Pauli, "Ramification polygons, splitting fields, and Galois
groups of Eisenstein polynomials", 2012), and v(disc f) = p(p-1)w.  Only an
uncertified f pays for the degree-p(p-1) difference polynomial, whose
constant term is (-1)^(p(p-1)/2) disc f and whose Newton polygon decides
the single-cluster check.  Each of these three polygons is asked only
whether it is one segment, which one chord test answers with no hull built.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import polys
from .arith import require_odd_prime, vp
from .errors import InputError, InternalCheckError, UsageError

if TYPE_CHECKING:
    from fractions import Fraction

CERTIFIED = "certified_totally_ramified"
UNDETERMINED = "undetermined"


class _InputPolynomialFields(NamedTuple):
    p: int
    coeffs: tuple[int | Fraction, ...]  # ascending, coeffs[p] == 1


class InputPolynomial(_InputPolynomialFields):
    """A monic degree-p polynomial with p-integral rational coefficients,
    each an int when it is an integer and a Fraction otherwise."""

    __slots__ = ()

    def __new__(cls, p: int, coeffs: Sequence[int | Fraction]):
        coeffs = tuple([_require_exact(c, i) for i, c in enumerate(coeffs)])
        require_odd_prime(p)
        if len(coeffs) != p + 1 or coeffs[-1] == 0:
            raise InputError(
                "degree_mismatch",
                f"polynomial must have degree exactly p = {p}",
            )
        if coeffs[-1] != 1:
            raise InputError("not_monic", "leading coefficient must be 1")
        for i, c in enumerate(coeffs):
            if c.denominator % p == 0:  # in lowest terms: v_p(c) < 0 exactly when p divides the denominator
                raise InputError("non_integral_coefficient", f"coefficient of x^{i} has negative {p}-adic valuation")
        return tuple.__new__(cls, (p, coeffs))

    # the base class's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_coefficients(cls, p: int, coeffs: Sequence[int | Fraction | str]) -> "InputPolynomial":
        """Coefficients from degree 0 up: ints, Fractions or rational strings
        ``[-]digits[/digits]``.  Anything else (floats, bools, None,
        containers, exponents, decimal points) is refused, as it is not an
        exact rational of bounded size."""
        return cls(p, [_parse_rational(c, i) if type(c) is str else _require_exact(c, i) for i, c in enumerate(coeffs)])

    @classmethod
    def from_string(cls, p: int, text: str) -> "InputPolynomial":
        terms = parse_polynomial_string(text)
        # before allocating: the list has one entry per exponent, so a huge one would exhaust memory
        if max(terms, default=0) != p:
            raise InputError("degree_mismatch", f"'{text}' does not have degree {p}")
        return cls(p, [terms.get(k, 0) for k in range(p + 1)])


def _require_exact(c, i: int) -> int | Fraction:
    """The coefficient c, exactly an int or a Fraction, as an int when it is
    an integer.  fractions loads only for a coefficient that is not an int."""
    if type(c) is int:
        return c
    from fractions import Fraction

    if type(c) is not Fraction:
        raise InputError("poly_parse", f"coefficient of x^{i} is a {type(c).__name__}, "
                         "not an int or a rational string")
    return c.numerator if c.denominator == 1 else c


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*(?P<xc>x)(?:\^(?P<expc>\d+))?)?
          | (?P<x>x)(?:\^(?P<exp>\d+))?
        )\s*""",
    re.VERBOSE,
)


def _parse_int(digits: str) -> int:
    # Python refuses to convert a number of more digits than its
    # int-to-str limit; that is bad input, not a fault
    try:
        return int(digits)
    except ValueError as exc:
        raise InputError("poly_parse", f"a number of {len(digits)} digits is too long to read") from exc


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str, i: int) -> int | Fraction:
    """A rational string [-]digits[/digits], each number read through the
    digit cap of ``_parse_int``: an int when the denominator is 1."""
    match = _RATIONAL_RE.fullmatch(text)
    if not match:
        raise InputError("poly_parse", f"coefficient of x^{i} is not a rational [-]digits[/digits]: {text[:40]!r}")
    num, den = match.groups()
    denominator = _parse_int(den or "1")
    if not denominator:
        raise InputError("poly_parse", f"coefficient of x^{i} has denominator 0")
    if denominator == 1:
        return _parse_int(num)
    from fractions import Fraction

    return Fraction(_parse_int(num), denominator)


def parse_polynomial_string(text: str) -> dict[int, int]:
    """Parse a sum of integer-coefficient terms c*x^k into {k: c}.

    Accepted term shapes: "x^5", "x", "3*x^2", "3x" is rejected (the grammar
    requires the explicit "*"), plain integers, each with an optional sign.
    """
    s = text.strip()
    if not s:
        raise InputError("poly_parse", "empty polynomial string")
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        match = _TERM_RE.match(s, pos)
        if not match or match.end() == pos:
            raise InputError("poly_parse", f"cannot parse '{text}' at position {pos}")
        sign = match.group("sign")
        if not first and not sign:
            raise InputError("poly_parse", f"missing sign before position {pos} in '{text}'")
        sgn = -1 if sign == "-" else 1
        if match.group("x") is not None:
            k = _parse_int(match.group("exp") or "1")
            c = sgn
        else:
            c = sgn * _parse_int(match.group("coeff"))
            if match.group("xc"):
                k = _parse_int(match.group("expc") or "1")
            else:
                k = 0
        terms[k] = terms.get(k, 0) + c
        pos = match.end()
        first = False
    return {k: c for k, c in terms.items() if c}


class _BaseFieldFields(NamedTuple):
    p: int
    n: int


class BaseField(_BaseFieldFields):
    """Unramified extension of Q_p of degree n; its valuation restricts to v_p."""

    __slots__ = ()

    def __new__(cls, p: int, n: int):
        require_odd_prime(p)
        if type(n) is not int:  # the report writes n by its type: a True would be true
            raise InputError("bad_inertia_degree", f"inertia degree must be an int, got a {type(n).__name__}")
        if n < 1:
            raise InputError("bad_inertia_degree", f"inertia degree must be >= 1, got {n}")
        return tuple.__new__(cls, (p, n))

    # the base class's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


def _one_segment(heights: Sequence[int | None]) -> bool:
    """Whether the points (x, heights[x]), x = 0..n, None standing for no
    point, all lie on or above the chord from the first point to the last:
    exactly when their lower hull, a Newton polygon, is one segment."""
    first, last, n = heights[0], heights[-1], len(heights) - 1
    for x, h in enumerate(heights):  # a loop, as all() over a generator costs about 0.7 us more per input
        if h is not None and (h - first) * n < (last - first) * x:
            return False
    return True


def _integer_model(f: InputPolynomial) -> tuple[list[int], int]:
    """M(x) = d^p f(x/d), monic in Z[x], and d, the lcm of the coefficient
    denominators: the coefficient of x^i in M is d^(p-i) a_i."""
    p = f.p
    # a list, not a generator: unpacking a generator resizes the argument
    # tuple, and the resized tuples pile up in CPython's per-size free lists
    d = math.lcm(*[c.denominator for c in f.coeffs])
    if d == 1:  # integer coefficients, as most inputs have: M is f
        return list(f.coeffs), 1
    return [c.numerator * d ** (p - i) // c.denominator for i, c in enumerate(f.coeffs)], d


def _certificate(model: list[int], d: int, p: int) -> tuple[list[int | None], int] | None:
    """The valuations of g = M(x + dc) = d^p f(x/d + c) (None for a zero
    coefficient) and k = v(g(0)), g's roots being of valuation k/p, when
    they certify f, else None.

    c = -f(0) mod p in [0, p) is the only shift for which every root of
    f(x + c) can have positive valuation: all of them are then congruent to
    0, so f = (x - c)^p = x^p - c mod p.  As f(0) = M(0)/d^p and d^p = d
    mod p, c = -M(0)/d mod p.  The roots of g are d times those of f(x + c),
    and M must be shifted by dc exactly: a shift that differs from it by a
    multiple of p, such as -M(0) mod p, moves roots of valuation above 1 to
    valuation 1.  g's Newton polygon is one segment of slope k/p in lowest
    terms exactly when p does not divide k and every point (i, v(g_i)) lies
    on or above the chord from (0, k) to (p, 0).
    """
    c = -model[0] * pow(d, -1, p) % p
    heights = [vp(a, p) if a else None for a in polys.shift(model, d * c)]
    k = heights[0]  # None when f(c) = 0: no certificate from this shift
    if k is not None and k % p and _one_segment(heights):
        return heights, k
    return None


def _ramification_polygon(valuations: list[int | None], k: int, p: int) -> list[int]:
    """Heights of the points (i, v(c_i)), i = 1..p, of the Newton polygon
    of g(beta(x + 1)) / x = sum c_i x^(i-1), beta a root of g of valuation
    k/p, in units of 1/p, from the valuations ``_certificate`` gives.

    Its roots are (beta' - beta) / beta over the other roots beta' of g
    (Greve and Pauli, "Ramification polygons, splitting fields, and Galois
    groups of Eisenstein polynomials", 2012).  The coefficient c_i,
    1 <= i <= p, is the sum of g_j beta^j C(j, i) over j >= i, whose terms
    have valuations v(g_j) + jk/p + v(C(j, i)).  Their fractional parts jk/p
    are distinct, so the coefficient's valuation is their minimum, read off
    without any arithmetic in K(beta).  C(j, i) is a unit for j < p, and
    C(p, i) has valuation 1 for 0 < i < p.  In units of 1/p every height is
    an integer.
    """
    heights = [k * p]  # i = p: beta^p
    low = heights[0] + p  # the j = p term for i < p
    for i in range(p - 1, 0, -1):
        if valuations[i] is not None:
            low = min(low, valuations[i] * p + i * k)
        heights.append(low)
    return heights[::-1]


def _difference_power_sums(s: Sequence[int]) -> list[int]:
    """The even power sums S_0, S_2, .. S_D of the D = len(s) - 1 nonzero
    root differences, from the power sums s_0 = p, s_1, .. of the roots.

    S_k = sum_l C(k,l) (-1)^(k-l) s_l s_(k-l) over all ordered pairs of
    roots, where the p zero differences add nothing for k > 0, and S_0 = D
    counts the others.  The differences come in pairs +-(a - b), so S_k = 0
    for odd k and those are not returned; for even k the terms l and k - l
    agree, so the half l < k/2 is summed, doubled, and the middle term
    added.  The binomials are taken along the row.
    """
    deg = len(s) - 1
    sums = [deg]
    for k in range(2, deg + 1, 2):
        half = k // 2
        c, total = 1, 0
        for l in range(half):
            term = c * s[l] * s[k - l]
            total += -term if l % 2 else term
            c = c * (k - l) // (l + 1)
        middle = c * s[half] * s[half]
        sums.append(2 * total + (-middle if half % 2 else middle))
    return sums


def _difference_model(model: list[int]) -> list[int]:
    """Monic integer polynomial whose roots are the D = p(p-1) differences
    of roots of the monic integer polynomial ``model`` of degree p.

    Built from power sums, as for composed differences in Bostan, Flajolet,
    Salvy and Schost, "Fast computation of special resultants" (2006).  The
    model is first translated by an integer next to the mean of its roots: a
    translation changes no root difference, and it keeps the integers as
    small as the spread of the roots allows, wherever the roots lie.
    Newton's identities give the power sums s_l of its roots; the
    differences have power sums S_k, formed from the s_l in
    ``_difference_power_sums``.  The differences come in pairs +-delta, so
    the result is E(x^2), where E has the D/2 roots delta^2 with power sums
    S_2k / 2 (each S_2k counts every unordered pair twice); Newton's
    identities turn those into E's integer coefficients.

    An odd S_2k or an inexact division in Newton's identities would mean a
    root power sum went wrong, and raises InternalCheckError.
    """
    p = len(model) - 1
    deg = p * p - p
    s = polys.power_sums(polys.shift(model, -model[-2] // p), deg + 1)
    even = _difference_power_sums(s)
    if any(S % 2 for S in even):
        raise InternalCheckError("a power sum of the root differences is odd")
    b = [0] * (deg + 1)
    b[::2] = polys.from_power_sums([deg // 2] + [S // 2 for S in even[1:]])
    return b


_CLUSTER_STATUS = {True: "yes", False: "no", None: "not_computed"}


class AssumptionReport(NamedTuple):
    """What ``validate_assumptions`` measured of f.  Every hypothesis flag
    follows from these values, and ``to_json_dict`` is where each is read
    off them."""

    p: int
    disc_valuation: int | None  # v(disc f); None when disc f = 0
    one_cluster: bool | None  # all root differences share one valuation; None when disc f = 0
    slope_numerator: int | None  # the k of the certifying shift's root valuation k/p; None when uncertified

    def _coprime(self) -> bool:
        """gcd(v(disc f), p - 1) = 1."""
        v = self.disc_valuation
        return v is not None and math.gcd(v, self.p - 1) == 1

    @property
    def maximal_inertia(self) -> bool:
        """Irreducibility certified and v(disc f) coprime to p-1: a certified
        f is irreducible, so squarefree, and one cluster."""
        return self.slope_numerator is not None and self._coprime()

    def failed_conditions(self) -> list[str]:
        flags = self.to_json_dict()
        failed = {"squarefree": not flags["squarefree"], "irreducibility": flags["irreducibility"] != CERTIFIED,
                  "gcd_condition": not flags["gcd_condition"],
                  "single_cluster": flags["single_cluster"]["status"] == "no"}
        return [name for name, fails in failed.items() if fails]

    def to_json_dict(self) -> dict:
        p, v = self.p, self.disc_valuation
        single_cluster: dict = {"status": _CLUSTER_STATUS[self.one_cluster]}
        if self.one_cluster:  # the common valuation w of the p(p-1) differences, whose sum is v(disc f)
            pairs = p * (p - 1)
            g = math.gcd(v, pairs)  # w = v/pairs in lowest terms, written as str(Fraction) writes it
            single_cluster["w"] = str(v // g) if g == pairs else f"{v // g}/{pairs // g}"
        return {
            "disc_valuation": None if v is None else str(v),
            "squarefree": v is not None,
            "irreducibility": UNDETERMINED if self.slope_numerator is None else CERTIFIED,
            "gcd_condition": self._coprime(),
            "disc_valuation_odd": v is not None and v % 2 == 1,
            "single_cluster": single_cluster,
            "maximal_inertia": self.maximal_inertia,
        }


def validate_assumptions(f: InputPolynomial) -> AssumptionReport:
    """Measure v(disc f), the single-cluster check and the certificate's k.

    A certified f is decided from valuations alone.  It is irreducible of
    prime degree p, hence squarefree, and its Galois group is solvable and
    transitive, so it lies in AGL(1, p), whose normal C_p = <sigma> acts
    regularly on the roots.  Each sigma^m(b) - b is a sum of conjugates of
    sigma(b) - b and back, so all p(p-1) root differences share one
    valuation w, read off the ramification polygon (Greve and Pauli, 2012).
    Then the roots form one cluster and v(disc f) = p(p-1)w.  Any other f
    is decided from the difference polynomial of its integer model, built
    once: its constant term c_0 = d^(p(p-1)) (-1)^(p(p-1)/2) disc f is
    nonzero exactly when f is squarefree, gives v(disc f) = v(c_0), and,
    when nonzero, its Newton polygon decides the single-cluster check.
    """
    p = f.p
    model, d = _integer_model(f)
    certified = _certificate(model, d, p)
    if certified:
        valuations, k = certified
        heights = _ramification_polygon(valuations, k, p)
        if not _one_segment(heights):
            raise InternalCheckError("ramification polygon of a certified input has several segments")
        # w = (heights[0] - heights[-1]) / (p(p-1)) + k/p; a wild root field of degree p has different exponent >= p
        disc_valuation = heights[0] - heights[-1] + (p - 1) * k
        if disc_valuation < p:
            raise InternalCheckError(f"v(disc f) = {disc_valuation} is below p = {p}, the least for a wild root field")
        return AssumptionReport(p, disc_valuation, True, k)
    heights = [vp(c, p) if c else None for c in _difference_model(model)]
    disc_valuation = heights[0]  # None for a repeated root
    # one segment, from (0, v(c_0)) to (p(p-1), 0): every difference has valuation w
    return AssumptionReport(p, disc_valuation, None if disc_valuation is None else _one_segment(heights), None)


def conductor_exponent(report: AssumptionReport) -> int | None:
    """Conductor exponent N = v(disc f), in the monogenic case.

    Requires a report with maximal_inertia.  When f becomes Eisenstein after
    some integer shift x -> x + c with 0 <= c < p, a root generates the full
    ring of integers of the (totally ramified, degree p) extension, and the
    extension discriminant equals disc f up to a unit.  Only the shift
    c = -f(0) mod p can make f Eisenstein, and it is the certificate's: the
    shifted f has one Newton segment of root valuation k/p, k the report's
    slope_numerator, from (0, k) to (p, 0), so it is Eisenstein exactly
    when k = 1.  Otherwise returns None: the formula would need the
    extension discriminant itself, which is not computed here.
    """
    if not report.maximal_inertia:
        raise UsageError(
            "assumptions_not_validated",
            "conductor_exponent requires a validated maximal-inertia report",
        )
    return report.disc_valuation if report.slope_numerator == 1 else None
