"""Point counts on y^2 = x^p - x: the linear counters for the full field and
for the twisted fixed-point system, checked against per-element Euler scans,
a brute-force tally and the naive oracle."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galrep.arith import is_odd_prime
from galrep.config import Budgets
from galrep.counting import _tally, count_curve, count_twisted_fixed, naive_twisted_oracle
from galrep.errors import BudgetExceeded, InputError, UsageError
from galrep.gf import build_field, frobenius_fixed_subfield, frobenius_root_solve


def signed_p(p):
    return -p if (p - 1) // 2 % 2 else p


def euler_curve_affine(field):
    """Affine points of y^2 = x^p - x by one Euler criterion per x (the
    counter before it became linear), as the oracle for count_curve."""
    p = field.p
    half = (field.size - 1) // 2
    one = field.one_t()
    minus_one = field.neg_t(one)
    count = 0
    for x in field.elements_t():
        t = field.sub_t(field.pow_t(x, p), x)
        if not any(t):
            count += 1
            continue
        s = field.pow_t(t, half)
        if s == one:
            count += 2
        else:
            assert s == minus_one
    return count


def euler_coset_affine(p, n):
    """Affine solutions of the twisted system by one Euler criterion per
    coset element x0 + c (the counter before it became linear)."""
    field, x0 = frobenius_root_solve(p, n)
    q = p**n
    half = (q - 1) // 2
    one = field.one_t()
    minus_one = field.neg_t(one)
    affine = 0
    for c in frobenius_fixed_subfield(field, n):
        x = field.add_t(x0.coeffs, c.coeffs)
        t = field.sub_t(field.pow_t(x, p), x)
        assert any(t)
        s = field.pow_t(t, half)
        if s == one:
            affine += 2
        else:
            assert s == minus_one
    return affine


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

    # every field with p^m <= 2500: m = 1 for each odd prime, and fields such
    # as F_81 and F_625 whose walk by x + 1 needs several cosets
    @pytest.mark.parametrize("m", range(1, 8))
    def test_against_euler_scan(self, m):
        primes = [p for p in range(3, 2501) if is_odd_prime(p) and p**m <= 2500]
        assert primes
        for p in primes:
            assert count_curve(p, m).affine == euler_curve_affine(build_field(p, m)), (p, m)

    def test_budget_decided_from_the_exponent(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"field size 3\^20001 exceeds"):
            count_curve(3, 20001)
        assert time.perf_counter() - started < 5


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

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 3), (7, 3)])
    def test_coset_equals_euler_coset_loop(self, p, n):
        assert count_twisted_fixed(p, n).affine_solutions == euler_coset_affine(p, n)

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

    def test_budgets_decided_from_the_exponent(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"subfield size 3\^100000001 exceeds"):
            count_twisted_fixed(3, 100000001)
        with pytest.raises(BudgetExceeded, match=r"field size 3\^300000003 exceeds"):
            naive_twisted_oracle(3, 100000001)
        assert time.perf_counter() - started < 5


class TestTally:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([3, 5, 7]), k=st.integers(1, 4), r=st.integers(0, 4))
    def test_against_brute_force(self, data, p, k, r):
        digit = st.integers(0, p - 1)
        table = bytearray(data.draw(st.lists(st.integers(0, 2), min_size=p**k, max_size=p**k)))
        base = data.draw(st.lists(digit, min_size=k, max_size=k))
        images = data.draw(st.lists(st.lists(digit, min_size=k, max_size=k), min_size=r, max_size=r))
        expected = [0, 0, 0]
        for c in product(range(p), repeat=r):
            t = list(base)
            for ci, w in zip(c, images):
                t = [(a + ci * b) % p for a, b in zip(t, w)]
            expected[table[sum(d * p**j for j, d in enumerate(t))]] += 1
        assert _tally(table, p, base, images) == expected
