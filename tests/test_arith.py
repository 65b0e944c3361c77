"""The shared odd-prime guard: every entry point that takes p refuses an
even or composite p with the same error."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galrep.arith import vp
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


PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=PRIMES, a=st.integers(-10**6, 10**6), r=st.integers(0, 11), e=st.integers(0, 40))
def test_valuation_of_an_int_is_that_of_its_fraction(p, a, r, e):
    n = (a * p + r % (p - 1) + 1) * p**e  # p**e times a unit, negative ones included
    assert vp(n, p) == vp(Fraction(n), p) == e
    assert vp(Fraction(1, n), p) == -e


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_valuation_of_zero_raises(zero):
    with pytest.raises(UsageError) as err:
        vp(zero, 5)
    assert err.value.code == "valuation_of_zero"
