"""Point counts on y^2 = x^p - x: the trace-fiber counters for the full
field and for the twisted fixed-point system, checked against per-element
Euler scans (the twisted one on the literal coset of solutions, found by
elimination in F_{p^(n*p)}), the closed form, the naive oracle of
oracles.py, and the fiber construction against a brute-force trace and the images of x^p - x."""

import time
from functools import cached_property
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galrep.arith import is_odd_prime
from galrep.config import Budgets
from galrep.counting import _artin_schreier_tally, _trace_fiber, count_curve, count_twisted_fixed
from galrep.errors import BudgetExceeded, InputError, InternalCheckError, UsageError
from galrep.gf import FieldSpec, build_field
from galrep.polys import power_sums
from oracles import count_by_trace_form, elements_t, naive_twisted_oracle, pow_t


def signed_p(p):
    return -p if (p - 1) // 2 % 2 else p


def euler_curve_affine(field):
    """Affine points of y^2 = x^p - x by one Euler criterion per x (the
    counter before it became linear), as the oracle for count_curve."""
    p = field.p
    half = (field.size - 1) // 2
    if field.m == 1:  # F_p on ints, as pow_t's tuple products are slow over all primes below 2500
        elements, power, sub = range(p), lambda a, e: pow(a, e, p), lambda a, b: (a - b) % p
        zero, one, minus_one = 0, 1, p - 1
    else:
        elements, power, sub = elements_t(field), lambda a, e: pow_t(field, a, e), field.sub_t
        zero, one, minus_one = field.scalar_t(0), field.scalar_t(1), field.scalar_t(-1)
    count = 0
    for x in elements:
        t = sub(power(x, p), x)
        if t == zero:
            count += 1
            continue
        s = power(t, half)
        if s == one:
            count += 2
        else:
            assert s == minus_one
    return count


def literal_coset(p, n):
    """The solutions of x^q = x - 1, q = p^n, as the coset x0 + F_q inside
    F_{p^(n*p)}, which holds all of them (x^(q^p) = x - p = x).

    x -> x^q - x is F_p-linear, so one Gauss-Jordan elimination of its
    matrix gives x0, mapped to -1 (free coordinates set to 0), and F_q, its
    kernel.  Returns the field, x0 and the q elements of F_q, as coefficient
    tuples.
    """
    field = build_field(p, n * p)
    m, q = field.m, p**n
    basis = [field.element_from_index(p**j) for j in range(m)]
    images = [field.sub_t(pow_t(field, v, q), v) for v in basis]
    minus_one = field.scalar_t(-1)
    rows = [[images[j][i] for j in range(m)] + [minus_one[i]] for i in range(m)]
    pivots = []
    for col in range(m):
        r = next((r for r in range(len(pivots), m) if rows[r][col]), None)
        if r is None:
            continue
        row = len(pivots)
        rows[row], rows[r] = rows[r], rows[row]
        inv = pow(rows[row][col], -1, p)
        rows[row] = [v * inv % p for v in rows[row]]
        for other in range(m):
            if other != row and rows[other][col]:
                f = rows[other][col]
                rows[other] = [(a - f * b) % p for a, b in zip(rows[other], rows[row])]
        pivots.append(col)
    assert not any(rows[r][m] for r in range(len(pivots), m)), "x^q = x - 1 has no solution"
    x0 = [0] * m
    for r, col in enumerate(pivots):
        x0[col] = rows[r][m]
    kernel = []
    for free in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free] % p
        kernel.append(v)
    subfield = {tuple(sum(ci * v[i] for ci, v in zip(c, kernel)) % p for i in range(m))
                for c in product(range(p), repeat=len(kernel))}
    x0 = tuple(x0)
    assert pow_t(field, x0, q) == field.sub_t(x0, field.scalar_t(1))
    assert len(subfield) == q
    assert all(pow_t(field, c, q) == c for c in subfield)
    return field, x0, sorted(subfield)


def euler_coset_affine(p, n):
    """Affine solutions of the twisted system by one Euler criterion per
    element x0 + c of the literal coset, as the oracle for
    count_twisted_fixed."""
    field, x0, subfield = literal_coset(p, n)
    q = p**n
    half = (q - 1) // 2
    one = field.scalar_t(1)
    minus_one = field.scalar_t(-1)
    affine = 0
    for c in subfield:
        x = field.add_t(x0, c)
        t = field.sub_t(pow_t(field, x, p), x)
        assert any(t)
        s = pow_t(field, t, half)
        if s == one:
            affine += 2
        else:
            assert s == minus_one
    return affine


def trace_to_prime_field(field, a):
    """Tr(a) as an integer mod p, from a's conjugates a^(p^k)."""
    total = (0,) * field.m
    for k in range(field.m):
        total = field.add_t(total, pow_t(field, a, field.p**k))
    assert not any(total[1:])
    return total[0]


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

    @pytest.mark.parametrize("m", [True, 2.0])
    def test_non_int_degree_refused(self, m):
        # the result writes m by its type: a True would be written as true
        with pytest.raises(InputError) as err:
            count_curve(3, m)
        assert err.value.code == "bad_degree"

    # every field with p^m <= 2500: m = 1 for each odd prime (walk by 2), and
    # fields such as F_25 and F_625 whose walk by x needs 8 cosets
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

    # with Tr(x) read one too high the fiber still holds q/p elements, and
    # the tally gives wrong totals (3^4: 100 points, not 64) unless the
    # check of the fiber's last element catches it
    @pytest.mark.parametrize("p,m", [(3, 4), (3, 8), (5, 5), (7, 4), (13, 3), (5, 2)])
    def test_wrong_traces_are_caught(self, monkeypatch, p, m):
        import galrep.counting as counting

        monkeypatch.setattr(counting, "power_sums",
                            lambda a, count: [s + (j == 1) for j, s in enumerate(power_sums(a, count))])
        with pytest.raises(InternalCheckError, match="another trace"):
            count_curve(p, m)


class TestTwistedCounts:
    @pytest.mark.parametrize(
        "p,n,affine,trace",
        [
            (3, 1, 0, 3),
            (5, 1, 10, -5),
            (7, 1, 0, 7),
            (3, 3, 36, -9),
            (5, 3, 150, -25),
            (5, 5, 3250, -125),
        ],
    )
    def test_coset_method(self, p, n, affine, trace):
        result = count_twisted_fixed(p, n)
        assert result.affine_solutions == affine
        assert result.fixed_points == affine + 1
        assert result.trace_sigma_frob == trace

    # the largest odd n the default coset budget reaches, for p <= 13
    LARGEST_N = {3: 11, 5: 7, 7: 7, 11: 5, 13: 5}

    @pytest.mark.parametrize("p", LARGEST_N)
    def test_largest_reachable_n(self, p):
        n = self.LARGEST_N[p]
        assert p**n <= Budgets().coset_q < p ** (n + 2)

    @pytest.mark.parametrize("p,n", [(p, n) for p, top in LARGEST_N.items() for n in range(1, top + 1, 2)])
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

    @pytest.mark.parametrize("n", [True, 3.0])
    def test_non_int_n_rejected(self, n):
        # the result writes n by its type: a True would be written as true
        with pytest.raises(UsageError) as err:
            count_twisted_fixed(3, n)
        assert err.value.code == "n_must_be_odd"

    def test_budgets(self):
        with pytest.raises(BudgetExceeded):
            count_twisted_fixed(5, 3, budgets=Budgets(coset_q=100))

    # L(x) = x^p - x maps F_q onto the trace-0 fiber and a + L(F_q) onto the
    # fiber of Tr a, each element hit p times (the additive Hilbert 90).
    # F_27 has Tr(1) = 3 = 0
    @pytest.mark.parametrize("p,m", [(3, 3), (5, 3), (3, 4), (7, 3)])
    def test_hilbert_90_fibers(self, p, m):
        field = build_field(p, m)
        traces = [trace_to_prime_field(field, a) for a in elements_t(field)]
        sums = power_sums(field.modulus, m)
        fibers = {c: _trace_fiber(p, sums, c) for c in (0, p - 1)}
        for c, fiber in fibers.items():
            assert list(fiber) == [int(t == c) for t in traces]
        a = field.element_from_index(traces.index(p - 1))
        for base, c in (((0,) * m, 0), (a, p - 1)):
            hits = [0] * field.size
            for x in elements_t(field):
                t = field.add_t(base, field.sub_t(pow_t(field, x, p), x))
                hits[sum(d * p**j for j, d in enumerate(t))] += 1
            assert hits == [p * b for b in fibers[c]]

    def test_base_of_the_wrong_trace_raises(self, monkeypatch):
        # at p = 5, chi(-1) = 1 in F_125: the fiber of trace +1 gives the same
        # counts and passes the closed form, so the trace check must catch it
        import galrep.counting as counting

        field = build_field(5, 3)
        assert _artin_schreier_tally(field, 1) == _artin_schreier_tally(field, -1)
        fiber = counting._trace_fiber
        monkeypatch.setattr(counting, "_trace_fiber", lambda p, traces, c: fiber(p, traces, -c))
        with pytest.raises(InternalCheckError, match="another trace"):
            count_twisted_fixed(5, 3)

    # with every trace read as 0, the trace-0 fiber is the whole field
    def test_fiber_of_the_wrong_size_raises(self, monkeypatch):
        import galrep.counting as counting

        monkeypatch.setattr(counting, "power_sums", lambda a, count: [0] * count)
        with pytest.raises(InternalCheckError, match="q/p"):
            count_curve(3, 2)
        with pytest.raises(InternalCheckError, match="q/p"):
            count_twisted_fixed(3, 3)

    def test_budgets_decided_from_the_exponent(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"subfield size 3\^100000001 exceeds"):
            count_twisted_fixed(3, 100000001)
        assert time.perf_counter() - started < 5


class TestTraceForm:
    """Both counters against the count of Tr(y^2) = c from the trace form's
    determinant: the affine count is p N(0), and the twisted one p N(-1).
    The 67 counts take about 0.2 s on a 2-core Xeon VM."""

    PAIRS = [(p, m) for p in (3, 5, 7, 11, 13, 17, 19, 23, 101, 997) for m in range(1, 11) if p**m <= 10**5]  # 3^11 > 10^5

    @pytest.mark.parametrize("p,m", PAIRS)
    def test_counts_equal_the_trace_form(self, p, m):
        field = build_field(p, m)
        assert count_curve(p, m).affine == p * count_by_trace_form(field, 0)
        if m % 2:
            assert count_twisted_fixed(p, m).affine_solutions == p * count_by_trace_form(field, -1)


class TestFieldSetUp:
    # the eight calls of the count-sweep benchmark workload
    COUNT_SWEEP = [(count_curve, 3, 8), (count_curve, 5, 5), (count_curve, 7, 4), (count_curve, 13, 3),
                   (count_twisted_fixed, 3, 7), (count_twisted_fixed, 7, 3), (count_twisted_fixed, 5, 3),
                   (count_twisted_fixed, 13, 1)]

    # galrep has no generic power: the modulus is certified by Frobenius
    # matrices and resultants, and each candidate builds its matrix once, the
    # chosen one in build_field
    def test_counting_calls_no_generic_power(self, monkeypatch):
        expected = [counter(p, k) for counter, p, k in self.COUNT_SWEEP]
        built = []
        columns = FieldSpec.__dict__["_frobenius_columns"]

        def counted_columns(field):
            built.append(field.modulus)
            return columns.func(field)

        spy = cached_property(counted_columns)
        spy.__set_name__(FieldSpec, "_frobenius_columns")
        monkeypatch.setattr(FieldSpec, "_frobenius_columns", spy)
        for (counter, p, k), result in zip(self.COUNT_SWEEP, expected):
            modulus = build_field(p, k).modulus
            built.clear()
            assert counter(p, k) == result
            assert len(built) == len(set(built))
            assert built[-1:] == ([modulus] if k > 1 else [])

    @pytest.mark.parametrize("p,m", [(p, k) for _, p, k in COUNT_SWEEP])
    def test_certified_field_carries_its_frobenius_columns(self, p, m):
        field = build_field(p, m)
        assert ("_frobenius_columns" in vars(field)) is (m > 1)
        x = (0, 1) + (0,) * (m - 2) if m > 1 else (0,)
        assert field._frobenius_columns == tuple(pow_t(field, x, i * p) for i in range(m))


class TestTraceFiber:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), p=st.sampled_from([3, 5, 7, 13]), k=st.integers(1, 4))
    def test_against_brute_force(self, data, p, k):
        if p == 13:
            k = min(k, 3)
        # any trace vector, zero entries included, and entries not yet reduced mod p
        traces = data.draw(st.lists(st.one_of(st.just(0), st.integers(-2 * p, 2 * p)), min_size=k, max_size=k))
        c = data.draw(st.integers(0, p - 1))
        expected = bytes(int(sum(d * s for d, s in zip(digits, traces)) % p == c)
                         for digits in (tuple(i // p**j % p for j in range(k)) for i in range(p**k)))
        assert _trace_fiber(p, traces, c) == expected

    @pytest.mark.parametrize("traces", [(0,), (0, 0, 0), (0, 1), (1, 0), (0, 2, 0, 1), (3, 0, 0, 4), (2, 2, 0)])
    def test_zero_traces(self, traces):
        p = 5
        k = len(traces)
        for c in range(p):
            expected = bytes(int(sum(i // p**j % p * s for j, s in enumerate(traces)) % p == c) for i in range(p**k))
            assert _trace_fiber(p, traces, c) == expected
