"""Finite field arithmetic, the Frobenius matrix, moduli and quadratic
characters, and the literal-coset oracle of test_counting.py (the solutions
of x^q = x - 1 inside F_{p^(n*p)}) checked against its defining equations."""

import random
from array import array
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galrep import gf
from galrep.arith import legendre_symbol
from galrep.counting import _artin_schreier_tally
from galrep.errors import InputError, InternalCheckError
from galrep.gf import FieldSpec, _resultant, _seed_sign, _times_x_successors, build_field
from oracles import elements_t, euler_sign, is_irreducible, mul_t, norm_by_conjugates, pow_t, rabin_is_irreducible
from test_counting import literal_coset

TABLE_VALUE = {0: 0, 1: 2, -1: 1}  # the character table's code for chi = 0, +1, -1
X = (0, 1) + (0,) * 12  # X[:m] is x in F_(p^m), 2 <= m <= 14


def quadratic_character(field, a):
    """0 for a = 0, +1 for a nonzero square, -1 otherwise (Euler's criterion)."""
    return euler_sign(field, a) if any(a) else 0


def monic_polynomials(p, m):
    """Every monic polynomial of degree m over F_p, constant term first."""
    return [rest + (1,) for rest in product(range(p), repeat=m)]


def multiply(f, g, p):
    """The product of two polynomials over F_p, constant term first."""
    h = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            h[i + j] = (h[i + j] + fi * gj) % p
    return tuple(h)


def reducible_polynomials(p, m):
    """The monic products of two monic factors of positive degree."""
    products = set()
    for d in range(1, m // 2 + 1):
        for f in monic_polynomials(p, d):
            for g in monic_polynomials(p, m - d):
                h = [0] * (m + 1)
                for i, fi in enumerate(f):
                    for j, gj in enumerate(g):
                        h[i + j] = (h[i + j] + fi * gj) % p
                products.add(tuple(h))
    return products


def irreducible_count(p, m):
    """(1/m) sum over d | m of mu(d) p^(m/d), Gauss's count."""
    def mu(d):
        sign, k = 1, 2
        while d > 1:
            if d % k == 0:
                d //= k
                if d % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign

    return sum(mu(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


class TestBuildField:
    def test_prime_field_modulus_is_x(self):
        assert build_field(5, 1).modulus == (0, 1)

    def test_deterministic_cubic(self):
        field = build_field(3, 3)
        assert field.modulus == (1, 0, 2, 1)  # x^3 + 2x^2 + 1, lex-least irreducible
        assert build_field(3, 3).modulus == field.modulus

    def test_degree_nine(self):
        field = build_field(3, 9)
        assert field.size == 19683
        assert len(field.modulus) == 10 and field.modulus[-1] == 1

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            build_field(4, 2)
        with pytest.raises(InputError):
            build_field(5, 0)

    @pytest.mark.parametrize("p,m", [(3, 3), (3, 9), (5, 2), (7, 2)])
    def test_fermat_identity_sampled(self, p, m):
        field = build_field(p, m)
        rng = random.Random(0)
        for _ in range(25):
            a = field.element_from_index(rng.randrange(field.size))
            assert pow_t(field, a, field.size) == a


class TestModuli:
    # the six pairs hold 216 reducible moduli; a ring that is not a field
    # must fail the walk or a resultant check
    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (3, 4), (5, 3), (7, 2)])
    def test_reducible_modulus_is_caught(self, p, m):
        reducible = reducible_polynomials(p, m)
        assert len(reducible) == p**m - irreducible_count(p, m)
        for modulus in sorted(reducible):
            with pytest.raises(InternalCheckError):
                FieldSpec(p, m, modulus).chi_table()

    @pytest.mark.parametrize("p,m", [(3, m) for m in range(1, 7)] + [(5, m) for m in range(1, 5)]
                             + [(7, m) for m in range(1, 4)] + [(13, 2), (13, 3)])
    def test_irreducible_count(self, p, m):
        irreducible = [f for f in monic_polynomials(p, m) if is_irreducible(FieldSpec(p, m, f))]
        assert len(irreducible) == irreducible_count(p, m)
        if m <= 4:
            assert not set(irreducible) & reducible_polynomials(p, m)

    @pytest.mark.parametrize("p,m,modulus", [
        (3, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)), (5, 5, (1, 0, 0, 0, 4, 1)), (7, 4, (1, 0, 0, 1, 1)),
        (13, 3, (1, 0, 4, 1)), (3, 7, (1, 0, 0, 0, 0, 1, 2, 1)), (7, 3, (1, 0, 1, 1)), (5, 3, (1, 0, 1, 1)),
    ])
    def test_count_sweep_moduli(self, p, m, modulus):
        assert build_field(p, m).modulus == modulus


class TestFrobenius:
    # x^3 - 1 = (x - 1)^3 over F_3 and x^2 over F_5 give rings with
    # nilpotents, where a -> a^p is still a ring map
    @pytest.mark.parametrize("p,m,modulus", [(3, 4, None), (5, 3, None), (7, 3, None), (13, 2, None), (3, 1, None),
                                             (3, 3, (2, 0, 0, 1)), (5, 2, (0, 0, 1))])
    def test_matrix_is_the_p_th_power(self, p, m, modulus):
        field = FieldSpec(p, m, modulus) if modulus else build_field(p, m)
        for a in elements_t(field):
            assert field.frob_t(a) == pow_t(field, a, p), a

    # the product of the conjugates is the resultant with the modulus, and
    # its Legendre symbol is Euler's criterion
    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 3), (7, 3), (13, 3)])
    def test_norm_sign_against_euler_oracle(self, p, m):
        field = build_field(p, m)
        for a in list(elements_t(field))[1:]:
            norm = norm_by_conjugates(field, a)
            assert norm == _resultant(field.modulus, a, p), a
            assert legendre_symbol(norm, p) == euler_sign(field, a), a


IRREDUCIBILITY_CASES = ([(3, m) for m in range(1, 7)] + [(5, m) for m in range(1, 5)]
                        + [(7, m) for m in range(1, 4)] + [(13, 2), (13, 3)])


class TestBenOr:
    @pytest.mark.parametrize("p,m", IRREDUCIBILITY_CASES)
    def test_agrees_with_rabin(self, p, m):
        for f in monic_polynomials(p, m):
            assert is_irreducible(FieldSpec(p, m, f)) == rabin_is_irreducible(f, p, m), f


class TestNormSigns:
    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 3), (7, 3), (13, 3), (3, 8)])
    def test_against_euler_oracle(self, p, m):
        field = build_field(p, m)
        for a in list(elements_t(field))[1:]:
            assert _seed_sign(field, a) == euler_sign(field, a), a

    # the walk's multiplier g = x (g = 2 over F_p), whose sign sets its flip
    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 4), (5, 3), (5, 4), (3, 7), (7, 3), (3, 8),
                                     (13, 3)])
    def test_multiplier_against_its_norm_and_euler_oracle(self, p, m):
        field = build_field(p, m)
        g = X[:m] if m > 1 else (2,)
        assert _seed_sign(field, g) == legendre_symbol(norm_by_conjugates(field, g), p) == euler_sign(field, g)

    # every monic g of degree 1..m-1 is a seed sharing the factor g with g h
    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (3, 4), (5, 3)])
    def test_shared_factor_raises(self, p, m):
        for d in range(1, m):
            for g in monic_polynomials(p, d):
                for h in monic_polynomials(p, m - d):
                    field = FieldSpec(p, m, multiply(g, h, p))
                    for c in range(1, p):
                        seed = tuple(c * gi % p for gi in g) + (0,) * (m - 1 - d)
                        with pytest.raises(InternalCheckError, match="shares a factor"):
                            _seed_sign(field, seed)

    # x^2 + 1 is irreducible over F_3, F_7 and F_11.  The identity matrix is
    # a ring map of the field but not a -> a^p.  The chi table reads no
    # matrix, so it stays right; the counters' fiber check sums the
    # conjugates of the fiber's last element with it, and finds its trace
    # wrong on the fibers of the curve count (trace 0) and the twisted one
    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_frobenius_that_is_not_the_p_th_power_is_caught(self, p):
        field = FieldSpec(p, 2, (1, 0, 1))
        assert is_irreducible(field)
        field.__dict__["_frobenius_columns"] = ((1, 0), (0, 1))
        assert list(field.chi_table()) == [TABLE_VALUE[quadratic_character(field, a)] for a in elements_t(field)]
        for c in (0, -1):
            with pytest.raises(InternalCheckError, match="another trace"):
                _artin_schreier_tally(field, c)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(ia=st.integers(0, 242), ib=st.integers(0, 242), ic=st.integers(0, 242))
    def test_ring_laws_f243(self, ia, ib, ic):
        # and in F_241, where m = 1 and the product is one residue
        for field in (build_field(3, 5), build_field(241, 1)):
            a, b, c = (field.element_from_index(i % field.size) for i in (ia, ib, ic))
            assert mul_t(field, a, b) == mul_t(field, b, a)
            assert mul_t(field, mul_t(field, a, b), c) == mul_t(field, a, mul_t(field, b, c))
            assert mul_t(field, a, field.add_t(b, c)) == field.add_t(mul_t(field, a, b), mul_t(field, a, c))
        assert mul_t(build_field(241, 1), (ia % 241,), (ib % 241,)) == (ia * ib % 241,)

    @settings(max_examples=40, deadline=None)
    @given(ia=st.integers(1, 242))
    def test_inverses_f243(self, ia):
        field = build_field(3, 5)
        a = field.element_from_index(ia)
        assert mul_t(field, a, pow_t(field, a, field.size - 2)) == field.scalar_t(1)


class TestQuadraticCharacter:
    def test_prime_field_values(self):
        field = build_field(5, 1)
        assert quadratic_character(field, (1,)) == 1
        assert quadratic_character(field, (0,)) == 0
        assert quadratic_character(field, (2,)) == -1
        squares = {mul_t(field, a, a) for a in elements_t(field)}
        for a in elements_t(field):
            expected = 0 if not any(a) else (1 if a in squares else -1)
            assert quadratic_character(field, a) == expected

    def test_extension_field_counts(self):
        field = build_field(3, 2)
        values = [quadratic_character(field, a) for a in elements_t(field)]
        assert values.count(0) == 1
        assert values.count(1) == (field.size - 1) // 2
        assert values.count(-1) == (field.size - 1) // 2


class TestCharacterTable:
    # the walk multiplies by x, which the lex-least modulus seldom makes
    # primitive: <x> has 8 cosets in F_(3^8) and F_625 and 18 in F_(13^3), and
    # 3 in F_(7^3).  x is a square (flip 0) in F_9, F_81, F_125, F_625, F_(3^8)
    # and F_(13^3), and not in F_(3^7) and F_(7^3), the fields of the twisted
    # counts at (3,7) and (7,3)
    X_IS_SQUARE = {(3, 2): True, (3, 4): True, (5, 3): True, (5, 4): True, (3, 7): False, (7, 3): False,
                   (3, 8): True, (13, 3): True}

    @pytest.mark.parametrize("p,m", list(X_IS_SQUARE))
    def test_against_euler_criterion(self, p, m):
        field = build_field(p, m)
        assert (euler_sign(field, X[:m]) > 0) is self.X_IS_SQUARE[(p, m)]
        table = field.chi_table()
        assert len(table) == field.size
        for index, a in enumerate(elements_t(field)):
            assert table[index] == TABLE_VALUE[quadratic_character(field, a)], a

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 101])
    def test_prime_field_walks_by_two(self, p):
        field = build_field(p, 1)
        assert list(_times_x_successors(field)) == [2 * i % p for i in range(p)]
        table = field.chi_table()
        for i in range(p):
            assert table[i] == TABLE_VALUE[quadratic_character(field, (i,))]

    @pytest.mark.parametrize("p,m", [(3, 4), (5, 3), (3, 2), (13, 3)])
    def test_successors_multiply_by_x(self, p, m):
        field = build_field(p, m)
        nxt = _times_x_successors(field)
        assert len(nxt) == field.size
        for index, a in enumerate(elements_t(field)):
            assert field.element_from_index(nxt[index]) == mul_t(field, a, X[:m])

    # F_9 (flip 0, two cosets) and F_27 (flip 3, one coset): any changed
    # entry leaves an element without a predecessor, so its walk cannot close
    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3)])
    def test_corrupt_successor_is_caught(self, monkeypatch, p, m):
        field = build_field(p, m)
        good = _times_x_successors(field)
        q = field.size
        for index in range(1, q):
            for wrong in {0, 1, good[index] % (q - 1) + 1} - {good[index]}:
                bad = array(good.typecode, good)
                bad[index] = wrong
                monkeypatch.setattr(gf, "_times_x_successors", lambda _field, bad=bad: bad)
                with pytest.raises(InternalCheckError):
                    field.chi_table()


class TestFrobeniusRootSolve:
    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 3), (5, 3)])
    def test_postcondition(self, p, n):
        field, x0, _ = literal_coset(p, n)
        q = p**n
        assert field.m == n * p
        assert pow_t(field, x0, q) == field.sub_t(x0, field.scalar_t(1))

    def test_root_of_artin_schreier_polynomial(self):
        field, x0, _ = literal_coset(5, 1)
        assert not any(field.add_t(field.sub_t(pow_t(field, x0, 5), x0), field.scalar_t(1)))

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 3)])
    def test_full_solution_coset(self, p, n):
        field, x0, sub = literal_coset(p, n)
        q = p**n
        assert len(sub) == q
        rng = random.Random(1)
        sample = sub if len(sub) <= 20 else rng.sample(sub, 20)
        for c in sample:
            x = field.add_t(x0, c)
            assert pow_t(field, x, q) == field.sub_t(x, field.scalar_t(1))

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 3)])
    def test_subfield_is_fixed_pointwise(self, p, n):
        field, _, sub = literal_coset(p, n)
        q = p**n
        assert all(pow_t(field, c, q) == c for c in sub)
        assert len(set(sub)) == q
