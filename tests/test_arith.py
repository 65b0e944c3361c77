"""The shared odd-prime guard: every entry point that takes p refuses an
even or composite p with the same error.  The order and primitive-root
helpers end on every modulus and agree with taking each power."""

import contextlib
import math
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import order_by_powers, rational_vp

from galrep.arith import is_prime, multiplicative_order, smallest_primitive_root, vp
from galrep.classify import classify
from galrep.counting import count_curve, count_twisted_fixed
from galrep.errors import InputError, UsageError
from galrep.gf import build_field
from galrep.groups import build_group, gauss_sum
from galrep.padic import BaseField, InputPolynomial

ENTRY_POINTS = {
    "InputPolynomial": lambda p: InputPolynomial.from_coefficients(p, [1] * (p + 1)),
    "BaseField": lambda p: BaseField(p, 1),
    # _replace goes through _make, which must keep the constructor's checks
    "InputPolynomial._replace": lambda p: InputPolynomial.from_string(3, "x^3-3")._replace(p=p),
    "BaseField._replace": lambda p: BaseField(3, 1)._replace(p=p),
    "build_group": lambda p: build_group(p, p_bound=13),
    "gauss_sum": gauss_sum,
    "build_field": lambda p: build_field(p, 2),
    "count_curve": lambda p: count_curve(p, 1),
    "count_twisted_fixed": lambda p: count_twisted_fixed(p, 1),
}


@pytest.mark.parametrize("p", [2, 9])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_one_error_for_a_p_that_is_not_an_odd_prime(name, p):
    with pytest.raises(InputError) as err:
        ENTRY_POINTS[name](p)
    assert (err.value.code, str(err.value)) == ("p_not_odd_prime", f"p must be an odd prime, got {p}")


# is_prime(3.0) is True: a float p must be refused before range or pow meet it
FLOAT_P = {
    "BaseField": lambda: BaseField(3.0, 1),
    "InputPolynomial": lambda: InputPolynomial(3.0, (Fraction(-3), Fraction(0), Fraction(0), Fraction(1))),
    "classify": lambda: classify(InputPolynomial(3.0, (Fraction(-3), Fraction(0), Fraction(0), Fraction(1))),
                                 BaseField(3.0, 1)),
    "count_curve": lambda: count_curve(3.0, 2),
    "count_twisted_fixed": lambda: count_twisted_fixed(3.0, 1),
    "build_group": lambda: build_group(3.0),
    "gauss_sum": lambda: gauss_sum(3.0),
    "build_field": lambda: build_field(3.0, 2),
}


@pytest.mark.parametrize("name", FLOAT_P)
def test_a_float_p_is_refused(name):
    with pytest.raises(InputError) as err:
        FLOAT_P[name]()
    assert (err.value.code, str(err.value)) == ("p_not_odd_prime", "p must be an odd prime, got a float")


PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=PRIMES, a=st.integers(-10**6, 10**6), r=st.integers(0, 11), e=st.integers(0, 40))
def test_valuation_of_an_int_is_that_of_its_fraction(p, a, r, e):
    n = (a * p + r % (p - 1) + 1) * p**e  # p**e times a unit, negative ones included
    assert vp(n, p) == rational_vp(Fraction(n), p) == e
    assert rational_vp(Fraction(1, n), p) == -e


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_valuation_of_zero_raises(zero):
    with pytest.raises(UsageError) as err:
        vp(zero, 5)
    assert err.value.code == "valuation_of_zero"


# read as an int, Fraction(1, 3) would get the valuation 0 at 3, not -1
@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(3), 3.0, True], ids=["1/3", "Fraction 3", "float", "bool"])
def test_valuation_of_a_non_int_raises(x):
    with pytest.raises(UsageError) as err:
        vp(x, 3)
    assert err.value.code == "valuation_of_non_int"


PRIMES_BELOW_200 = [m for m in range(2, 200) if is_prime(m)]


@pytest.mark.parametrize("m", PRIMES_BELOW_200)
def test_order_agrees_with_taking_each_power(m):
    orders = [multiplicative_order(a, m) for a in range(1, m)]
    assert orders == [order_by_powers(a, m) for a in range(1, m)]
    root = smallest_primitive_root(m)
    assert orders[root - 1] == m - 1 and all(k < m - 1 for k in orders[:root - 1])


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test once ``seconds`` have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# each of these once looped forever: the powers of a non-unit never reach 1
@pytest.mark.parametrize("m", [4, 9, 15, 25])
def test_composite_modulus_ends(m):
    with deadline(5):
        orders = {a: multiplicative_order(a, m) for a in range(1, m) if math.gcd(a, m) == 1}
        for a in (0, *(a for a in range(1, m) if a not in orders)):
            with pytest.raises(UsageError) as err:
                multiplicative_order(a, m)
            assert err.value.code == "not_a_unit"
        with pytest.raises(UsageError) as err:
            smallest_primitive_root(m)
    assert err.value.code == "no_primitive_root"
    assert orders == {a: order_by_powers(a, m) for a in orders}
