"""Point counts on y^2 = x^p - x: full-field scans, the coset method for the
twisted fixed-point system, and the naive oracle."""

import pytest

from galrep.config import Budgets
from galrep.counting import count_curve, count_twisted_fixed, naive_twisted_oracle
from galrep.errors import BudgetExceeded, InputError, UsageError


def signed_p(p):
    return -p if (p - 1) // 2 % 2 else p


class TestCountCurve:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_prime_field_trace_zero(self, p):
        result = count_curve(p, 1)
        assert result.affine == p
        assert result.total == p + 1
        assert result.trace == 0

    # brute-force scans froze these: F_9 -> 15 affine, F_25 -> 5, F_49 -> 91
    @pytest.mark.parametrize("p,m,affine", [(3, 2, 15), (5, 2, 5), (7, 2, 91)])
    def test_quadratic_extension_traces(self, p, m, affine):
        result = count_curve(p, m)
        assert result.affine == affine
        assert result.trace == (p - 1) * signed_p(p)

    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 2), (3, 4), (7, 2)])
    def test_weil_bound(self, p, m):
        result = count_curve(p, m)
        g = (p - 1) // 2
        assert result.trace**2 <= 4 * g * g * p**m

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_curve(3, 4, budgets=Budgets(curve_enum=50))

    def test_bad_input(self):
        with pytest.raises(InputError):
            count_curve(4, 1)


class TestTwistedCounts:
    @pytest.mark.parametrize(
        "p,n,affine,trace",
        [
            (3, 1, 0, 3),
            (5, 1, 10, -5),
            (7, 1, 0, 7),
            (3, 3, 36, -9),
            (5, 3, 150, -25),
        ],
    )
    def test_coset_method(self, p, n, affine, trace):
        result = count_twisted_fixed(p, n)
        assert result.affine_solutions == affine
        assert result.fixed_points == affine + 1
        assert result.trace_sigma_frob == trace

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 3), (5, 3)])
    def test_closed_form(self, p, n):
        result = count_twisted_fixed(p, n)
        assert result.trace_sigma_frob == -(signed_p(p) ** ((n + 1) // 2))

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 3)])
    def test_coset_equals_naive_oracle(self, p, n):
        fast = count_twisted_fixed(p, n)
        slow = naive_twisted_oracle(p, n)
        assert (fast.affine_solutions, fast.fixed_points, fast.trace_sigma_frob) == (
            slow.affine_solutions,
            slow.fixed_points,
            slow.trace_sigma_frob,
        )

    def test_even_n_rejected(self):
        with pytest.raises(UsageError):
            count_twisted_fixed(3, 2)
        with pytest.raises(UsageError):
            naive_twisted_oracle(3, 2)

    def test_budgets(self):
        with pytest.raises(BudgetExceeded):
            count_twisted_fixed(5, 3, budgets=Budgets(coset_q=100))
        with pytest.raises(BudgetExceeded):
            count_twisted_fixed(5, 5)  # solver budget
        with pytest.raises(BudgetExceeded):
            naive_twisted_oracle(5, 3)  # 5^15 above the naive default
