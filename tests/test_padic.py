"""p-adic analysis: discriminants, Newton polygons, certificates, hypotheses,
conductor exponents.  sympy serves as the independent oracle for resultant
and discriminant values."""

import math
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lower_hull, newton_polygon, rational_vp, single_cluster_by_hull

from galrep import polys
from galrep.arith import vp
from galrep.classify import classify
from galrep.errors import InputError, InternalCheckError, UsageError
from galrep.padic import (
    CERTIFIED,
    _certificate,
    _difference_model,
    _difference_power_sums,
    _integer_model,
    _one_segment,
    UNDETERMINED,
    AssumptionReport,
    BaseField,
    InputPolynomial,
    conductor_exponent,
    parse_polynomial_string,
    validate_assumptions,
)


def poly(p, text):
    return InputPolynomial.from_string(p, text)


def sympy_disc(coeffs):
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
    return Fraction(str(sympy.discriminant(sympy.Poly(expr, x))))


def model_difference(f):
    """The difference polynomial of f's integer model M = d^p f(x/d), the
    one validate_assumptions builds: d is prime to p, so each coefficient
    has the valuation of f's own difference polynomial's."""
    return _difference_model(_integer_model(f)[0])


def difference_disc(f):
    """disc f read off the constant term d^(p(p-1)) (-1)^(p(p-1)/2) disc f of
    the model's difference polynomial."""
    model, d = _integer_model(f)
    deg = f.p * (f.p - 1)
    sign = -1 if (deg // 2) % 2 else 1
    return sign * Fraction(_difference_model(model)[0], d**deg)


def shifted_eisenstein(p, units, c):
    """Coefficients of g(x - c), g = x^p + p * (sum of units[i] x^i): f(x + c)
    is Eisenstein when units[0] is prime to p."""
    g = [p * u for u in units] + [1]
    f = [0] * (p + 1)
    for i, a in enumerate(g):
        for k in range(i + 1):
            f[k] += a * math.comb(i, k) * (-c) ** (i - k)
    return f


@st.composite
def shifted_inputs(draw):
    """Monic f with f(x + c) Eisenstein, c an integer up to 40 away from 0, so
    the roots lie far from 0; some get a unit added to the coefficient of x,
    which spoils the Eisenstein shape."""
    p = draw(st.sampled_from([3, 5, 7]))
    units = [draw(st.sampled_from([-2, -1, 1, 2]))]
    units += draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=p - 1, max_size=p - 1))
    coeffs = shifted_eisenstein(p, units, draw(st.integers(min_value=-40, max_value=40)))
    coeffs[1] += draw(st.sampled_from([0, 0, 1, 5]))
    return InputPolynomial.from_coefficients(p, coeffs)


@st.composite
def certified_inputs(draw):
    """Monic f = g(x - c) over Q, g of one Newton slope k/p with gcd(k, p) = 1:
    f(x + c) is Eisenstein for k = 1 and certified but not Eisenstein for
    k = 2, 3, p + 1 and 2p - 1, the last two of slope above 1 at every p.
    |c| <= 20 for k < p.  For k > p, roots of valuation k/p > 1 keep it
    under the certificate's shift by c mod p only when c differs from that
    residue by a multiple of p^2, so c is the residue plus -p^2, 0 or p^2.
    Every denominator is prime to p."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    k = draw(st.sampled_from([k for k in (1, 2, 3, p + 1, 2 * p - 1) if math.gcd(k, p) == 1]))
    denominators = st.sampled_from([d for d in (1, 2, 3, 4, 7, 10) if d % p])
    # on or above the segment from (0, k) to (p, 0), and on it at x^0
    g = [Fraction(p**k * draw(st.sampled_from([-2, -1, 1, 2])), draw(denominators))]
    for i in range(1, p):
        g.append(Fraction(p ** -(-k * (p - i) // p) * draw(st.integers(-3, 3)), draw(denominators)))
    g.append(Fraction(1))
    c = draw(st.integers(min_value=-20, max_value=20))
    if k > p:
        c = c % p + p * p * draw(st.integers(-1, 1))
    f = [Fraction(0)] * (p + 1)
    for i, a in enumerate(g):
        for j in range(i + 1):
            f[j] += a * math.comb(i, j) * (-c) ** (i - j)
    return InputPolynomial(p, tuple(f))


def searched_slope(f):
    """The root valuation of f(x + c) for a c in [0, p) whose Newton
    polygon is one segment of slope denominator p, or None; every shift is
    tried, in Fractions on f itself."""
    p = f.p
    for c in range(p):
        shifted = polys.shift(list(f.coeffs), Fraction(c))
        if shifted[0] == 0:
            continue
        segments = newton_polygon(shifted, p)
        if len(segments) == 1 and segments[0].root_valuation.denominator == p:
            return segments[0].root_valuation
    return None


def flags(f):
    """The hypothesis flags of f's assumption report, as its JSON writes them."""
    return validate_assumptions(f).to_json_dict()


def certified_slope(report, p):
    """The root valuation k/p of the report's certifying shift, or None."""
    k = report.slope_numerator
    return None if k is None else Fraction(k, p)


def oracle_report(f):
    """The assumption report's JSON flags, and the slope numerator k, by the
    discriminant route: sympy's discriminant, the difference polynomial's
    Newton polygon and the certificate by a search over every shift, each
    flag computed on its own."""
    p = f.p
    v = rational_vp(sympy_disc(f.coeffs), p)
    single_cluster = single_cluster_by_hull(model_difference(f), p)
    slope = searched_slope(f)
    irreducibility = UNDETERMINED if slope is None else CERTIFIED
    gcd_condition = math.gcd(v, p - 1) == 1
    return {
        "disc_valuation": str(v),
        "squarefree": True,
        "irreducibility": irreducibility,
        "gcd_condition": gcd_condition,
        "disc_valuation_odd": v % 2 == 1,
        "single_cluster": single_cluster,
        "maximal_inertia": irreducibility == CERTIFIED and gcd_condition and single_cluster["status"] != "no",
    }, None if slope is None else slope.numerator


class TestInputValidation:
    def test_good_input(self):
        f = poly(5, "x^5-5")
        assert f.coeffs == (Fraction(-5), 0, 0, 0, 0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(InputError) as err:
            poly(5, "x^4-5")
        assert err.value.code == "degree_mismatch"

    def test_huge_exponent_rejected_before_allocating(self):
        with pytest.raises(InputError) as err:
            poly(5, "x^99999999999+x^5")
        assert err.value.code == "degree_mismatch"

    def test_p_not_odd_prime(self):
        with pytest.raises(InputError) as err:
            poly(9, "x^9-3")
        assert err.value.code == "p_not_odd_prime"
        with pytest.raises(InputError):
            poly(2, "x^2-2")

    def test_not_monic(self):
        with pytest.raises(InputError) as err:
            InputPolynomial.from_coefficients(3, [1, 0, 0, 2])
        assert err.value.code == "not_monic"

    def test_non_integral_coefficient(self):
        with pytest.raises(InputError) as err:
            InputPolynomial.from_coefficients(3, [Fraction(1, 3), 0, 0, 1])
        assert err.value.code == "non_integral_coefficient"

    def test_prime_to_p_denominator_allowed(self):
        f = InputPolynomial.from_coefficients(5, [Fraction(1, 3), 0, 0, 0, 0, 1])
        assert f.coeffs[0] == Fraction(1, 3)
        assert [type(c) for c in f.coeffs] == [Fraction] + [int] * 5

    def test_integral_coefficients_are_ints(self):
        # every route to a coefficient: the string, ints, int strings, integral Fractions and rational strings,
        # the constructor and _replace
        built = [poly(5, "x^5-5"), InputPolynomial.from_coefficients(5, [-5, "0", Fraction(0), "0/7", 0, "3/3"]),
                 InputPolynomial(5, (Fraction(-10, 2), 0, 0, 0, 0, Fraction(1))), poly(5, "x^5-5")._replace(p=5)]
        for f in built:
            assert f == (5, (-5, 0, 0, 0, 0, 1))
            assert [type(c) for c in f.coeffs] == [int] * 6

    def test_base_field_validation(self):
        with pytest.raises(InputError):
            BaseField(4, 1)
        with pytest.raises(InputError):
            BaseField(5, 0)

    @pytest.mark.parametrize("n", [True, 1.0, 2.0])
    def test_base_field_refuses_a_non_int_degree(self, n):
        # the report writes n by its type: a True would be written as true
        with pytest.raises(InputError) as err:
            BaseField(3, n)
        assert err.value.code == "bad_inertia_degree"

    @pytest.mark.parametrize("coeffs", [(Fraction(-3), 0, 0, True), (-3.0, 0, 0, 1)])
    def test_constructor_refuses_inexact_coefficients(self, coeffs):
        # a bool would be written as "True", a float fail inside classify;
        # the constructor refuses them as from_coefficients does, word for word
        with pytest.raises(InputError) as built:
            InputPolynomial(3, coeffs)
        with pytest.raises(InputError) as parsed:
            InputPolynomial.from_coefficients(3, coeffs)
        assert built.value.code == parsed.value.code == "poly_parse"
        assert str(built.value) == str(parsed.value)


class TestParser:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^5-5", {5: 1, 0: -5}),
            ("x^3 - 3*x + 2", {3: 1, 1: -3, 0: 2}),
            ("-x^2+x", {2: -1, 1: 1}),
            ("7", {0: 7}),
            ("x", {1: 1}),
            ("2*x^3+2*x^3", {3: 4}),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_polynomial_string(text) == expected

    @pytest.mark.parametrize("text", ["", "x^", "3x", "x**2", "x^2 x", "a+1"])
    def test_rejected(self, text):
        with pytest.raises(InputError) as err:
            parse_polynomial_string(text)
        assert err.value.code == "poly_parse"

    def test_coefficient_list_strings(self):
        f = InputPolynomial.from_coefficients(5, ["-5", "0", "0", "0", "0", "1"])
        assert f == poly(5, "x^5-5")

    def test_rational_strings(self):
        f = InputPolynomial.from_coefficients(5, ["-7/3", "0", "10/4", 0, Fraction(1, 2), "1"])
        assert f.coeffs == (Fraction(-7, 3), 0, Fraction(5, 2), 0, Fraction(1, 2), 1)

    def test_entries_are_checked_in_order(self):
        # strings and other entries alike: the first bad one is the one reported
        with pytest.raises(InputError) as err:
            InputPolynomial.from_coefficients(3, [1.5, "abc", 0, 1])
        assert str(err.value) == "coefficient of x^0 is a float, not an int or a rational string"

    @pytest.mark.parametrize("text", ["-3e5000", "1e10000000", "1.5", "1/0", "-", "1/", "/2", "--1", "+1",
                                      " 1", "1 ", "1_0", "\u0663", "9" * 5000, "1/" + "9" * 5000])
    def test_non_rational_strings_refused(self, text):
        with pytest.raises(InputError) as err:
            InputPolynomial.from_coefficients(3, [text, 0, 0, 1])
        assert err.value.code == "poly_parse"


class TestDiscriminant:
    """disc f as (-1)^(p(p-1)/2) times the constant term of the integer
    model's difference polynomial, over d^(p(p-1)), against sympy."""

    # disc(x^p - p) = (-1)^(p(p-1)/2) p^(2p-1), so v_p = 2p - 1
    @pytest.mark.parametrize(
        "p,text,expected",
        [
            (5, "x^5-5", Fraction(5**9)),
            (3, "x^3-3", Fraction(-243)),
            (7, "x^7-7", Fraction(-(7**13))),
        ],
    )
    def test_frozen_values(self, p, text, expected):
        assert difference_disc(poly(p, text)) == expected

    @pytest.mark.parametrize(
        "p,text",
        [
            (5, "x^5-5"),
            (5, "x^5+x+1"),
            (5, "x^5-5*x^4+5"),
            (3, "x^3-3*x^2+2*x-7"),
            (7, "x^7-7"),
        ],
    )
    def test_against_sympy(self, p, text):
        f = poly(p, text)
        assert difference_disc(f) == sympy_disc(f.coeffs)

    @settings(max_examples=25, deadline=None)
    @given(f=shifted_inputs())
    def test_against_sympy_far_from_zero(self, f):
        # the difference polynomial is built from a translate of f; the value must not change
        assert difference_disc(f) == sympy_disc(f.coeffs)

    def test_repeated_root_gives_zero(self):
        # (x-1)^2 (x+1)^3 = x^5 + x^4 - 2x^3 - 2x^2 + x + 1
        f = InputPolynomial.from_coefficients(5, [1, 1, -2, -2, 1, 1])
        assert difference_disc(f) == 0 == sympy_disc(f.coeffs)


class TestNewtonPolygon:
    """The oracle's general hull, which the tests compare galrep's chord
    test against."""

    def test_eisenstein(self):
        segs = newton_polygon(list(poly(5, "x^5-5").coeffs), 5)
        assert [(s.root_valuation, s.multiplicity) for s in segs] == [(Fraction(1, 5), 5)]

    def test_shallower_slope(self):
        segs = newton_polygon(list(poly(5, "x^5-25").coeffs), 5)
        assert [(s.root_valuation, s.multiplicity) for s in segs] == [(Fraction(2, 5), 5)]

    def test_unit_slope_zero(self):
        segs = newton_polygon(list(poly(5, "x^5+x+1").coeffs), 5)
        assert [(s.root_valuation, s.multiplicity) for s in segs] == [(Fraction(0), 5)]

    def test_two_segments_from_factored_input(self):
        # (x^2 - 5)(x^3 - 25): valuations 1/2 (twice) and 2/3 (three times)
        f = poly(5, "x^5-5*x^3-25*x^2+125")
        segs = newton_polygon(list(f.coeffs), 5)
        assert [(s.root_valuation, s.multiplicity) for s in segs] == [
            (Fraction(2, 3), 3),
            (Fraction(1, 2), 2),
        ]

    @pytest.mark.parametrize("text", ["x^5-5", "x^5-25", "x^5+x+1", "x^5-5*x^3-25*x^2+125"])
    def test_multiplicities_sum_to_degree(self, text):
        assert sum(s.multiplicity for s in newton_polygon(list(poly(5, text).coeffs), 5)) == 5

    def test_x_divides_is_an_error(self):
        with pytest.raises(ValueError, match="x divides"):
            newton_polygon(list(poly(5, "x^5-5*x").coeffs), 5)


@st.composite
def chord_heights(draw):
    """Integer heights at x = 0..n, with None for a zero coefficient between
    the two ends.  Each inner point is drawn against the chord from the
    first point to the last: on it (when it passes through a lattice point
    there), the least integer above it, higher, or the greatest integer
    below it, the one point that spoils a single segment."""
    n = draw(st.integers(1, 12), label="n")
    first = draw(st.integers(0, 40), label="first")
    # an integer slope half the time, so that the chord meets a lattice point at every x
    last = draw(st.one_of(st.integers(0, 40), st.integers(-first // n, 4).map(lambda s: first + s * n)), label="last")
    heights = [first]
    for x in range(1, n):
        least = -(-(first * n + (last - first) * x) // n)  # the least integer on or above the chord
        heights.append(draw(st.sampled_from([None, least, least, least + 1, least + 4, least - 1])))
    return heights + [last]


class TestOneSegment:
    """The chord test galrep asks of every Newton polygon, against the
    oracle's whole lower hull."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(heights=chord_heights())
    @example(heights=[4, None, 2, None, 0])  # on the chord
    @example(heights=[4, None, 1, None, 0])  # just below it
    @example(heights=[10, 8, 5, 3, 0])  # on it at x = 2, above elsewhere
    @example(heights=[3, 0])
    def test_same_as_the_hull(self, heights):
        hull = lower_hull([(x, h) for x, h in enumerate(heights) if h is not None])
        n = len(heights) - 1
        assert _one_segment(heights) == (len(hull) == 1)
        if len(hull) == 1:
            # the slope galrep reads off the ends: the root valuation w of every root
            assert hull[0] == (Fraction(heights[0] - heights[-1], n), n)


class TestIrreducibilityCertificate:
    def test_certified_all_unramified_bases(self):
        f = poly(5, "x^5-5")
        assert flags(f)["irreducibility"] == CERTIFIED

    def test_slope_zero_undetermined(self):
        assert flags(poly(5, "x^5+x+1"))["irreducibility"] == UNDETERMINED

    def test_non_coprime_slope_numerator(self):
        # one segment of valuation 5/5 = 1: certificate must not fire
        assert flags(poly(5, "x^5-3125"))["irreducibility"] == UNDETERMINED

    def test_certified_non_eisenstein(self):
        assert flags(poly(5, "x^5-25"))["irreducibility"] == CERTIFIED

    @settings(max_examples=25, deadline=None)
    @given(f=shifted_inputs())
    def test_same_as_search_over_every_shift(self, f):
        # the certificate tries one shift; searching all p of them must agree
        slope = searched_slope(f)
        report = validate_assumptions(f)
        assert report.to_json_dict()["irreducibility"] == (UNDETERMINED if slope is None else CERTIFIED)
        assert certified_slope(report, f.p) == slope

    def test_roots_of_valuation_above_one(self):
        # f = (x - c)^p - p^(p+1) + (p^(p+2)/den) x: the roots of f(x + c)
        # have valuation (p+1)/p.  Only the shift by c itself certifies f; one
        # off by a multiple of p moves those roots to valuation 1
        missed = []
        for p in (3, 5, 7):
            for c in range(p):
                for den in (d for d in (1, 2, 3, 7, 11) if d % p):
                    coeffs = [Fraction(math.comb(p, k) * (-c) ** (p - k)) for k in range(p + 1)]
                    coeffs[0] -= p ** (p + 1)
                    coeffs[1] += Fraction(p ** (p + 2), den)
                    f = InputPolynomial(p, tuple(coeffs))
                    report = validate_assumptions(f)
                    if report.to_json_dict()["irreducibility"] != CERTIFIED or report.slope_numerator != p + 1:
                        missed.append((p, c, den))
        assert missed == []


class TestDifferenceRootValuations:
    @pytest.mark.parametrize(
        "p,text,w",
        [
            (3, "x^3-3", Fraction(5, 6)),
            (5, "x^5-5", Fraction(9, 20)),
            (5, "x^5-25", Fraction(13, 20)),
            (5, "x^5-5*x^4+5", Fraction(2, 5)),
            (5, "x^5+x+1", Fraction(0)),
        ],
    )
    def test_single_cluster_values(self, p, text, w):
        f = poly(p, text)
        result = single_cluster_by_hull(model_difference(f), p)
        assert result == {"status": "yes", "w": str(w)}
        assert flags(f)["single_cluster"] == result
        # v(disc) is the sum of the p(p-1) difference valuations
        disc = sympy_disc(f.coeffs)
        assert p * (p - 1) * w == rational_vp(disc, p)

    @pytest.mark.parametrize(
        "p,coeffs",
        [
            (3, "x^3-3"),
            (5, "x^5-5"),
            (5, "x^5-5*x^4+5"),
            (7, "x^7-7"),
            (5, [Fraction(5, 2), Fraction(5, 3), 0, 0, Fraction(1, 7), 1]),
            (5, "x^5+x+1"),  # w = 0
        ],
    )
    def test_difference_polynomial_against_sympy(self, p, coeffs):
        if isinstance(coeffs, str):
            f = poly(p, coeffs)
        else:
            f = InputPolynomial.from_coefficients(p, coeffs)
        assert_model_difference_against_sympy(f)

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.sampled_from([3, 5]),
        numerators=st.lists(st.integers(min_value=-30, max_value=30), min_size=5, max_size=5),
        denominators=st.lists(st.sampled_from([1, 1, 2, 7]), min_size=5, max_size=5),
    )
    def test_difference_polynomial_property(self, p, numerators, denominators):
        # random monic p-integral f: denominators are prime to p
        coeffs = [Fraction(a, b) for a, b in zip(numerators[:p], denominators[:p])] + [1]
        f = InputPolynomial.from_coefficients(p, coeffs)
        assert_model_difference_against_sympy(f)

    @settings(max_examples=20, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 13]), data=st.data())
    def test_difference_power_sums_against_full_convolution(self, p, data):
        # power sums of d^p f(x/d) for a random monic p-integral f, d prime to p
        numerators = data.draw(st.lists(st.integers(min_value=-30, max_value=30), min_size=p, max_size=p))
        denominators = data.draw(st.lists(st.sampled_from([d for d in (1, 1, 2, 3, 7) if d % p]),
                                          min_size=p, max_size=p))
        coeffs = [Fraction(a, b) for a, b in zip(numerators, denominators)] + [Fraction(1)]
        d = math.lcm(*(c.denominator for c in coeffs))
        s = polys.power_sums([int(c * d ** (p - i)) for i, c in enumerate(coeffs)], p * (p - 1) + 1)
        full = full_convolution_sums(s)
        assert not any(full[1::2])  # the differences come in pairs +-(a - b)
        assert _difference_power_sums(s) == full[::2]

    def test_perturbed_power_sum_raises(self, monkeypatch):
        # S_4 + 1 is odd; S_4 + 2 is even, but its half is off by one, which
        # makes Newton's division by 2 at the x^(D/2 - 2) coefficient of E inexact
        for error, message in ((1, "odd"), (2, "inexactly")):
            def perturbed(s, error=error):
                sums = _difference_power_sums(s)
                sums[2] += error
                return sums

            monkeypatch.setattr("galrep.padic._difference_power_sums", perturbed)
            with pytest.raises(InternalCheckError, match=message):
                model_difference(poly(5, "x^5-5"))

    def test_not_squarefree_raises(self):
        # a repeated root makes a zero difference: x divides the difference
        # polynomial, whose Newton polygon the oracle then refuses
        f = InputPolynomial.from_coefficients(5, [1, 1, -2, -2, 1, 1])
        diff = model_difference(f)
        assert diff[0] == 0
        with pytest.raises(ValueError, match="x divides"):
            newton_polygon(diff, 5)
        report = validate_assumptions(f)
        assert (report.disc_valuation, report.one_cluster) == (None, None)
        assert not report.to_json_dict()["squarefree"]
        assert report.to_json_dict()["single_cluster"] == {"status": "not_computed"}


def sympy_difference_polynomial(coeffs):
    """Res_y(g(y), g(x + y)) / x^p for the monic g of degree p with the
    ascending ``coeffs``, computed by sympy."""
    x, y = sympy.symbols("x y")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
    res = sympy.resultant(sympy.Poly(expr.subs(x, y), y), sympy.Poly(expr.subs(x, x + y), y))
    quotient, remainder = sympy.div(sympy.Poly(sympy.expand(res), x), sympy.Poly(x**(len(coeffs) - 1), x))
    assert remainder.is_zero
    return [Fraction(str(c)) for c in reversed(quotient.all_coeffs())]


def assert_model_difference_against_sympy(f):
    """f's integer model is M = d^p f(x/d), monic in Z[x] with d prime to p,
    and its difference polynomial is sympy's resultant of M."""
    p = f.p
    model, d = _integer_model(f)
    assert d % p and all(type(c) is int for c in model)
    assert [Fraction(c, d ** (p - i)) for i, c in enumerate(model)] == list(f.coeffs)
    assert _difference_model(model) == sympy_difference_polynomial(model)


def full_convolution_sums(s):
    """Power sums of the nonzero root differences with every term of
    S_k = sum_l C(k,l) (-1)^(k-l) s_l s_(k-l) formed, S_0 = len(s) - 1."""
    deg = len(s) - 1
    return [deg] + [
        sum(math.comb(k, l) * (-1) ** (k - l) * s[l] * s[k - l] for l in range(k + 1))
        for k in range(1, deg + 1)
    ]


class TestValidateAssumptions:
    def test_model_family_passes(self):
        report = validate_assumptions(poly(5, "x^5-5"))
        assert report == (5, 9, True, 1)
        assert report.maximal_inertia
        assert report.to_json_dict() == {
            "disc_valuation": "9", "squarefree": True, "irreducibility": CERTIFIED, "gcd_condition": True,
            "disc_valuation_odd": True, "single_cluster": {"status": "yes", "w": "9/20"}, "maximal_inertia": True}
        assert report.failed_conditions() == []

    def test_undetermined_input_fails(self):
        report = validate_assumptions(poly(5, "x^5+x+1"))
        assert not report.maximal_inertia
        assert report.to_json_dict()["irreducibility"] == UNDETERMINED
        assert "irreducibility" in report.failed_conditions()

    def test_the_report_is_its_measurements(self):
        assert AssumptionReport._fields == ("p", "disc_valuation", "one_cluster", "slope_numerator")

    def test_reducible_input_fails_on_irreducibility_alone(self):
        # x^5 - 1 has the root 1, yet its roots form one cluster and v(disc f) = 5 is prime to 4
        report = validate_assumptions(poly(5, "x^5-1"))
        assert report == (5, 5, True, None)
        assert report.to_json_dict()["gcd_condition"]
        assert report.failed_conditions() == ["irreducibility"]
        assert not report.maximal_inertia

    def test_repeated_roots_fail(self):
        f = InputPolynomial.from_coefficients(5, [1, 1, -2, -2, 1, 1])
        report = validate_assumptions(f)
        assert not report.to_json_dict()["squarefree"]
        assert report.disc_valuation is None
        assert report.to_json_dict()["single_cluster"]["status"] == "not_computed"
        assert "squarefree" in report.failed_conditions()

    def test_p_mismatch(self, monkeypatch):
        # validate_assumptions takes no base field: classify refuses a
        # mismatched p itself, before any p-adic work on f
        def fail(*args):
            raise AssertionError("validate_assumptions ran before the p check")

        monkeypatch.setattr(sys.modules["galrep.padic"], "validate_assumptions", fail)
        with pytest.raises(InputError) as err:
            classify(poly(5, "x^5-5"), BaseField(3, 1))
        assert err.value.code == "p_mismatch"

    def test_even_disc_valuation_fails_gcd(self):
        # v(disc) = 8 here, so gcd with p-1 = 4 is 4
        report = validate_assumptions(poly(5, "x^5-5*x^4+5"))
        assert report.disc_valuation == 8
        assert not report.to_json_dict()["gcd_condition"]
        assert not report.to_json_dict()["disc_valuation_odd"]
        assert not report.maximal_inertia

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3))
    def test_gcd_condition_implies_odd_valuation(self, coeffs):
        # p - 1 is even, so coprimality forces oddness; checked on random cubics
        f = InputPolynomial.from_coefficients(3, coeffs + [1])
        flagged = flags(f)
        if flagged["gcd_condition"]:
            assert flagged["disc_valuation_odd"]

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), data=st.data())
    def test_single_cluster_same_as_the_hull(self, p, data):
        # mostly uncertified f, decided by the chord test on the difference
        # polynomial; the oracle builds that polynomial's whole hull
        units = data.draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p))
        powers = data.draw(st.lists(st.sampled_from([1, 1, p, p * p]), min_size=p, max_size=p))
        f = InputPolynomial.from_coefficients(p, [u * e for u, e in zip(units, powers)] + [1])
        diff = model_difference(f)
        expected = single_cluster_by_hull(diff, p) if diff[0] else {"status": "not_computed"}
        assert flags(f)["single_cluster"] == expected

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3))
    def test_single_cluster_valuation_identity(self, coeffs):
        # v(disc) is the sum of all difference valuations, so a single shared
        # valuation w forces v(disc) = p(p-1) w
        f = InputPolynomial.from_coefficients(3, coeffs + [1])
        flagged = flags(f)
        if flagged["squarefree"] and flagged["single_cluster"]["status"] == "yes":
            disc = sympy_disc(f.coeffs)
            assert rational_vp(disc, 3) == 6 * Fraction(flagged["single_cluster"]["w"])


class TestCertifiedFromValuations:
    """Certified inputs are decided from the certificate's valuations, with
    v(disc f) = p v(g'(beta)); the discriminant route is their oracle."""

    @settings(max_examples=150, deadline=None)
    @given(f=certified_inputs())
    def test_report_equals_discriminant_route(self, f):
        report, (oracle, k) = validate_assumptions(f), oracle_report(f)
        assert oracle["irreducibility"] == CERTIFIED
        assert report.to_json_dict() == oracle
        assert (report.p, report.slope_numerator, report.maximal_inertia) == (f.p, k, oracle["maximal_inertia"])

    def test_disc_valuation_below_the_wild_bound_raises(self, monkeypatch):
        # k = 1 and v(g_1) = 0 give v(disc f) = p v(g_1) + 0 k = 0 < p: no wild extension has it
        monkeypatch.setattr("galrep.padic._certificate", lambda model, d, p: ([1, 0, None, None, None, 0], 1))
        with pytest.raises(InternalCheckError, match="below p"):
            validate_assumptions(poly(5, "x^5-5"))


class TestDirectCertificate:
    """The certificate decided from integer valuations agrees with the
    Newton polygon of the shifted model, one segment of slope denominator p."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_as_newton_polygon(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13]), label="p")
        k = data.draw(st.integers(1, 2 * p), label="k")
        # each valuation near the chord from (0, k) to (p, 0), or a zero
        # coefficient; below it only when ``low``, so that many g certify
        low = data.draw(st.booleans(), label="low")
        g = [p**k * data.draw(st.sampled_from([-2, -1, 1, 2, 3]))]
        for i in range(1, p):
            e = data.draw(st.integers(max(0, k * (p - i) // p - low), k * (p - i) // p + 2))
            g.append(data.draw(st.sampled_from([0, p**e, -(p**e), 2 * p**e, p ** (e + 10)])))
        g[0] += data.draw(st.sampled_from([0, 0, 0, 1, p]))  # sometimes a unit, or one more p
        f = InputPolynomial.from_coefficients(p, g + [1])
        model, d = _integer_model(f)
        shifted = polys.shift(model, d * (-g[0] % p))
        polygon = newton_polygon(shifted, p) if shifted[0] else None
        oracle = polygon is not None and len(polygon) == 1 and polygon[0].root_valuation.denominator == p
        certified = _certificate(model, d, p)
        assert bool(certified) == oracle
        if certified:
            valuations = [vp(a, p) if a else None for a in shifted]
            assert certified == (valuations, polygon[0].root_valuation.numerator)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=st.sampled_from([3, 5, 7, 11, 13]), data=st.data())
    def test_shift_from_the_integer_model_is_minus_f0(self, p, data):
        # any rational f with denominators prime to p: c = -M(0)/d mod p is -f(0) mod p
        units = st.integers(-40, 40).filter(lambda u: u % p)
        coeffs = [Fraction(data.draw(st.integers(-10**6, 10**6)), data.draw(units)) for _ in range(p)]
        f = InputPolynomial.from_coefficients(p, coeffs + [1])
        model, d = _integer_model(f)
        shifts = []
        original = polys.shift
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polys, "shift", lambda poly, c: shifts.append(c) or original(poly, c))
            _certificate(model, d, p)
        f0 = f.coeffs[0]
        assert shifts == [d * (-f0.numerator * pow(f0.denominator, -1, p) % p)]


class TestConductorExponent:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_model_family(self, p):
        f = poly(p, f"x^{p}-{p}")
        assert conductor_exponent(validate_assumptions(f)) == 2 * p - 1

    def test_eisenstein_after_shift(self):
        # (x+1)^5 - 5 becomes Eisenstein under x -> x + 4
        f = poly(5, "x^5+5*x^4+10*x^3+10*x^2+5*x-4")
        assert conductor_exponent(validate_assumptions(f)) == 9

    @settings(max_examples=25, deadline=None)
    @given(f=shifted_inputs())
    def test_same_as_search_over_every_shift(self, f):
        p = f.p
        report = validate_assumptions(f)
        if not report.maximal_inertia:
            return
        eisenstein = False
        for c in range(p):
            g = polys.shift(list(f.coeffs), Fraction(c))
            if all(a == 0 or rational_vp(a, p) >= 1 for a in g[:-1]) and g[0] != 0 and rational_vp(g[0], p) == 1:
                eisenstein = True
        expected = rational_vp(sympy_disc(f.coeffs), p) if eisenstein else None
        assert conductor_exponent(report) == expected

    def test_not_monogenic_not_computed(self):
        assert conductor_exponent(validate_assumptions(poly(5, "x^5-25"))) is None

    def test_requires_validated_assumptions(self):
        with pytest.raises(UsageError) as err:
            conductor_exponent(validate_assumptions(poly(5, "x^5+x+1")))
        assert err.value.code == "assumptions_not_validated"


class TestPolygonOfGeneralPolynomials:
    def test_polygon_of_raw_coefficients(self):
        # 9 + 3x + x^2 over p = 3: vertices (0,2), (2,0), one slope
        segs = newton_polygon([Fraction(9), Fraction(3), Fraction(1)], 3)
        assert [(s.root_valuation, s.multiplicity) for s in segs] == [(Fraction(1), 2)]

    @settings(max_examples=50, deadline=None)
    @given(heights=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=12),
           denominator=st.integers(min_value=1, max_value=13))
    def test_hull_of_fraction_heights_is_the_scaled_integer_hull(self, heights, denominator):
        whole = lower_hull(list(enumerate(heights)))
        scaled = lower_hull([(i, Fraction(h, denominator)) for i, h in enumerate(heights)])
        assert [(s.root_valuation, s.multiplicity) for s in scaled] == [
            (s.root_valuation / denominator, s.multiplicity) for s in whole
        ]
        assert sum(s.multiplicity for s in whole) == len(heights) - 1
