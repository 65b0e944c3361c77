"""The shared odd-prime guard: every entry point that takes p refuses an
even or composite p with the same error."""

import pytest

from galrep.counting import count_curve, count_twisted_fixed
from galrep.errors import InputError
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
