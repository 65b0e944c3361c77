"""Exact cyclotomic arithmetic in Z[zeta_m]: canonical form, int coordinates,
ring laws, conjugation, the integer enclosure of the complex value."""

import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, cyclotomic_poly
from sympy.polys.densearith import dup_mul, dup_rem

from oracles import cyclotomic_polynomial_by_divisors, plain

from galrep.cyclotomic import Cyclotomic, cyclotomic_polynomial
from galrep.errors import UsageError
from galrep.groups import gauss_sum
from galrep.json_writer import dump_json


def zeta(m, e=1):
    return Cyclotomic.root_of_unity(m, e)


class TestBasics:
    def test_zeta3_times_zeta3_squared_is_one(self):
        assert zeta(3, 1) * zeta(3, 2) == Cyclotomic.rational(3, 1)

    def test_zeta3_difference_squared(self):
        # (z - z^2)^2 = z^2 - 2 + z = -3 using 1 + z + z^2 = 0
        d = zeta(3, 1) - zeta(3, 2)
        assert d * d == Cyclotomic.rational(3, -3)

    def test_zeta4_squared(self):
        assert zeta(4) * zeta(4) == Cyclotomic.rational(4, -1)

    def test_conjugate_of_zeta5(self):
        assert zeta(5).conjugate() == zeta(5, 4)

    def test_conjugate_of_one_plus_zeta3(self):
        one = Cyclotomic.rational(3, 1)
        assert (one + zeta(3)).conjugate() == one + zeta(3, 2)

    def test_gauss_sum_norm(self):
        g5 = gauss_sum(5)
        assert g5.conjugate() * g5 == Cyclotomic.rational(5, 5)

    def test_conductor_mismatch_raises(self):
        with pytest.raises(UsageError):
            zeta(3) * zeta(4)

    def test_no_inverses(self):
        # Z[zeta_m] is a ring: neither division nor powers are provided
        with pytest.raises(TypeError):
            zeta(5) ** -1
        with pytest.raises(TypeError):
            1 / zeta(5)


class TestIntegerCoordinates:
    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 2.0, True],
                             ids=["half", "Fraction", "float", "integral float", "bool"])
    def test_non_int_refused(self, bad):
        calls = [
            lambda: Cyclotomic.from_terms(5, {0: 1, 2: bad}),
            lambda: Cyclotomic.rational(5, bad),
            lambda: zeta(5) * bad,
            lambda: bad * zeta(5),
            lambda: Cyclotomic(5, (bad, 0, 0, 0)),
            lambda: zeta(5)._replace(coeffs=(bad, 0, 0, 0)),
        ]
        for call in calls:
            with pytest.raises(UsageError) as err:
                call()
            assert err.value.code == "non_integer_coefficient"

    @pytest.mark.parametrize("coeffs", [(1, 2), (1, 2, 0, 0, 0), (), [1, 0, 0, 0]],
                             ids=["short", "long", "empty", "list"])
    def test_wrong_coordinate_vector_refused(self, coeffs):
        # deg Phi_5 = 4: zip would otherwise drop the missing coordinates of
        # Cyclotomic(5, (1, 2)) in a sum and return a wrong value
        for call in (lambda: Cyclotomic(5, coeffs), lambda: zeta(5)._replace(coeffs=coeffs)):
            with pytest.raises(UsageError) as err:
                call()
            assert err.value.code == "bad_coordinates"

    @pytest.mark.parametrize("m", [True, 5.0, "5"])
    def test_conductor_that_is_not_an_int_refused(self, m):
        for call in (lambda: Cyclotomic(m, (1,)), lambda: zeta(1)._replace(m=m)):
            with pytest.raises(UsageError) as err:
                call()
            assert err.value.code == "bad_conductor"

    def test_direct_constructor_accepts_a_reduced_vector(self):
        assert Cyclotomic(5, (1, 2, 0, 0)) == Cyclotomic.from_terms(5, {0: 1, 1: 2})

    def test_ring_operations_keep_ints(self):
        a = Cyclotomic.from_terms(12, {0: 3, 5: -2, 11: 7})
        b = Cyclotomic.from_terms(12, {1: 4, 7: -1})
        for value in (a + b, a - b, -a, a * b, a * 3, 3 * a, a.conjugate()):
            assert all(type(c) is int for c in value.coeffs)


class TestCanonicalForm:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12, 15, 40])
    def test_high_powers_fold(self, m):
        assert zeta(m, m) == Cyclotomic.rational(m, 1)
        assert zeta(m, m + 3) == zeta(m, 3 % m)

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 24])
    def test_reduction_idempotent(self, m):
        v = Cyclotomic.from_terms(m, {0: 2, 1: -1, m - 1: 5})
        again = Cyclotomic.from_terms(m, dict(enumerate(v.coeffs)))
        assert again == v

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        # degree is Euler phi
        for m in (5, 8, 9, 24, 40, 312):
            deg = len(cyclotomic_polynomial(m)) - 1
            phi = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
            assert deg == phi

    def test_same_as_dividing_by_every_divisor(self):
        # 7320 = 2^3 * 3 * 5 * 61 has four prime factors and a square part
        for m in [*range(1, 501), 7320]:
            assert cyclotomic_polynomial(m) == cyclotomic_polynomial_by_divisors(m), m

    def test_reduction_matches_sympy(self):
        # sympy's dense remainder mod Phi_m, on descending coefficients; m up
        # to 60 holds every conductor p and 2(p - 1) of the primes p <= 13
        rng = random.Random(2611)
        for m in range(1, 61):
            phi = cyclotomic_poly(m, polys=True).rep.to_list()
            d = len(phi) - 1

            def reduced(descending):
                remainder = [int(c) for c in reversed(dup_rem(descending, phi, ZZ))]
                return Cyclotomic(m, tuple(remainder + [0] * (d - len(remainder))))

            for e in range(3 * m):
                c = rng.choice([-3, -1, 1, 2])
                assert Cyclotomic.from_terms(m, {e: c}) == reduced([ZZ(c)] + [ZZ(0)] * e), (m, e)
            for _ in range(5):
                a, b = ([rng.randint(-9, 9) for _ in range(d)] for _ in range(2))
                product = reduced(dup_mul([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ))
                assert Cyclotomic(m, tuple(a)) * Cyclotomic(m, tuple(b)) == product, (m, a, b)


small_coeff = st.integers(min_value=-9, max_value=9)


def elements(m):
    deg = len(cyclotomic_polynomial(m)) - 1
    return st.lists(small_coeff, min_size=deg, max_size=deg).map(
        lambda cs: Cyclotomic.from_terms(m, dict(enumerate(cs)))
    )


@pytest.mark.parametrize("m", [3, 4, 8, 12])
class TestRingLaws:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_commutative_and_distributive(self, m, data):
        a = data.draw(elements(m))
        b = data.draw(elements(m))
        c = data.draw(elements(m))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_associative(self, m, data):
        a = data.draw(elements(m))
        b = data.draw(elements(m))
        c = data.draw(elements(m))
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_conjugation_is_a_ring_map(self, m, data):
        a = data.draw(elements(m))
        b = data.draw(elements(m))
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def numeric(value, bits=64):
    re, im, _ = value.enclose(bits)
    return complex(re / 2**bits, im / 2**bits)


# the embedding zeta_m -> exp(2*pi*i/m), through the integer enclosure of its image
class TestEmbed:
    def test_embed_one(self):
        re, im, err = Cyclotomic.rational(7, 1).enclose(64)
        assert err == 1 and abs(re - 2**64) <= err and abs(im) <= err

    def test_embed_gauss_sums(self):
        # the intervals hold sqrt(5), i sqrt(3) and i sqrt(7) exactly: compare squares of integers
        for p, real in ((5, True), (3, False), (7, False)):
            re, im, err = gauss_sum(p).enclose(64)
            part, other = (re, im) if real else (im, re)
            assert abs(other) <= err
            assert 0 < part - err and (part - err) ** 2 <= p * 4**64 <= (part + err) ** 2

    @pytest.mark.parametrize("m", [40, 105, 120])
    def test_embed_respects_multiplication(self, m):
        a = Cyclotomic.from_terms(m, {1: 2, 7: 3, m - 2: -4})
        b = Cyclotomic.from_terms(m, {0: -1, 3: 5, 11: 2})
        assert abs(numeric(a * b) - numeric(a) * numeric(b)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 20, 40, 105, 120]), bits=st.integers(8, 400),
           data=st.data())
    def test_true_parts_lie_within_err(self, m, bits, data):
        d = len(cyclotomic_polynomial(m)) - 1
        coeffs = data.draw(st.lists(st.integers(-2**80, 2**80), min_size=d, max_size=d))
        re, im, err = Cyclotomic(m, tuple(coeffs)).enclose(bits)
        assert err == sum(map(abs, coeffs))
        with mpmath.workprec(bits + 300):
            z = sum(c * mpmath.expjpi(mpmath.mpf(2 * e) / m) for e, c in enumerate(coeffs)) * mpmath.mpf(2) ** bits
            assert abs(z.real - re) <= err and abs(z.imag - im) <= err


class TestSerialization:
    def test_json_shape(self):
        assert json.loads(dump_json(zeta(4))) == plain(zeta(4)) == {"m": 4, "coeffs": ["0", "1"]}
