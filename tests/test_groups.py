"""Group construction, conjugacy classes, character tables, Gauss sums, and
the selection of the finite-group factor psi.  The group law on normal forms
lives here, as the oracles need it and production does not: brute-force
orbit enumeration checks the closed-form conjugacy classes, and Frobenius'
induction formula over those orbits checks the closed-form induced rows."""

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_orthogonal, class_rep, gauss_sum_by_definition, kernel_size, psi_by_table_search

from galrep.arith import is_odd_prime
from galrep.cyclotomic import Cyclotomic
from galrep.errors import InputError, UsageError
from galrep.groups import (
    FULL,
    INERTIA,
    SIGMA_PHI,
    El,
    GroupSpec,
    _induced_row,
    _kernel_size,
    build_group,
    character_table,
    class_index,
    conjugacy_classes,
    gauss_sum,
    identify_psi,
)

ALL_P = [3, 5, 7, 11, 13]
ORACLE_P = [p for p in range(3, 24) if is_odd_prime(p)]
PROPERTY_P = [p for p in range(3, 62) if is_odd_prime(p)]


class GroupLaw:
    """Multiplication of normal forms s^i t^j f^k in a ``GroupSpec``:

        (i1,j1,k1)*(i2,j2,k2) = (i1 + b^j1 i2 mod p,  j1 + p^k1 j2 mod 2(p-1),  k1+k2 mod 2).
    """

    def __init__(self, group):
        self.group = group
        self.b_powers = [pow(group.b, j, group.p) for j in range(group.tau_order)]

    def mul(self, a, c):
        p, to = self.group.p, self.group.tau_order
        j2 = c.j * p if a.k else c.j
        return El((a.i + self.b_powers[a.j] * c.i) % p, (a.j + j2) % to, (a.k + c.k) % 2)

    def inv(self, a):
        p, to = self.group.p, self.group.tau_order
        j = (-a.j * (p if a.k else 1)) % to
        return El((-a.i * self.b_powers[(-a.j) % (p - 1)]) % p, j, a.k)

    def conjugate(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self):
        kmax = 2 if self.group.variant == FULL else 1
        return [El(i, j, k) for i in range(self.group.p) for j in range(self.group.tau_order) for k in range(kmax)]

    def nu(self):
        """The central involution t^(p-1) of the tame part."""
        return El(0, self.group.p - 1, 0)


def row(table, label):
    return next(r for r in table.rows if r.label == label)


def value_at(table, r, element):
    return r.values[class_index(table.group, class_rep(table.group, element))]


@lru_cache(maxsize=None)
def brute_force_classes(group):
    """Classes by orbit enumeration, O(|G|^2) conjugations: (lex-least
    representative, orbit) sorted by representative, and the class index of
    every element."""
    law = GroupLaw(group)
    all_elements = law.elements()
    seen = set()
    orbits = []
    for x in all_elements:
        if x in seen:
            continue
        orbit = frozenset(law.conjugate(g, x) for g in all_elements)
        seen |= orbit
        orbits.append((min(orbit), orbit))
    orbits.sort(key=lambda item: item[0])
    index = {member: idx for idx, (_, orbit) in enumerate(orbits) for member in orbit}
    return orbits, index


def generic_induced_row(group, nu_sign, phi_sign):
    """Ind_H^G of lambda by Frobenius' formula, class by class:
    |H| Ind(x) = |G| / |C| * sum of lambda(y) over y in C and H, with C the
    brute-force orbit of x and H the centralizer of s, found by brute force.
    lambda(s^i nu^e f^k) = zeta_p^i nu_sign^e phi_sign^k on the abelian H.
    The sum is formed in integers; dividing by |H| at the end must be exact,
    as a character value lies in Z[zeta_p]."""
    p = group.p
    law = GroupLaw(group)
    s = El(1, 0, 0)
    centralizer = {g for g in law.elements() if law.conjugate(g, s) == s}
    assert len(centralizer) == (4 if group.variant == FULL else 2) * p
    values = []
    for rep, orbit in brute_force_classes(group)[0]:
        terms = {}
        for i, j, k in orbit & centralizer:
            sign = (nu_sign if j else 1) * (phi_sign if k else 1)
            terms[i] = terms.get(i, 0) + sign
        scaled = Cyclotomic.from_terms(p, terms) * (group.order // len(orbit))
        quotients = [divmod(c, len(centralizer)) for c in scaled.coeffs]
        assert not any(r for _, r in quotients)
        values.append(Cyclotomic.from_terms(p, {e: q for e, (q, _) in enumerate(quotients)}))
    return tuple(values)


class TestGroupConstruction:
    @pytest.mark.parametrize(
        "p,variant,order",
        [(5, INERTIA, 40), (7, FULL, 168), (3, INERTIA, 12), (13, FULL, 624)],
    )
    def test_orders(self, p, variant, order):
        assert build_group(p, variant).order == order

    @pytest.mark.parametrize("p,b", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
    def test_smallest_primitive_root(self, p, b):
        assert build_group(p).b == b

    def test_rejects_bad_p(self):
        with pytest.raises(InputError):
            build_group(9)
        with pytest.raises(InputError):
            build_group(17)  # beyond the default bound
        build_group(17, p_bound=17)  # raising the bound admits it

    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_group_axioms_sampled(self, variant):
        law = GroupLaw(build_group(7, variant))
        els = law.elements()
        rng = random.Random(7)
        e = El(0, 0, 0)
        for _ in range(200):
            a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
            assert law.mul(law.mul(a, b), c) == law.mul(a, law.mul(b, c))
            assert law.mul(a, law.inv(a)) == e == law.mul(law.inv(a), a)

    @pytest.mark.parametrize("p", ALL_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_nu_commutes_with_sigma(self, p, variant):
        law = GroupLaw(build_group(p, variant))
        s = El(1, 0, 0)
        nu = law.nu()
        assert law.mul(s, nu) == law.mul(nu, s)

    def test_defining_relations(self):
        group = build_group(5, FULL)
        law = GroupLaw(group)
        s, t, f = El(1, 0, 0), El(0, 1, 0), El(0, 0, 1)
        tau_order = group.tau_order
        # t s t^-1 = s^b
        assert law.conjugate(t, s) == El(group.b, 0, 0)
        # f t f = t^p
        assert law.mul(law.mul(f, t), f) == El(0, group.p % tau_order, 0)
        # s f = f s
        assert law.mul(s, f) == law.mul(f, s)


class TestConjugacyClasses:
    @pytest.mark.parametrize("p,variant,count", [(5, INERTIA, 10), (7, FULL, 19), (3, INERTIA, 6)])
    def test_class_counts(self, p, variant, count):
        assert len(conjugacy_classes(build_group(p, variant))) == count

    @pytest.mark.parametrize("p", ALL_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_partition(self, p, variant):
        group = build_group(p, variant)
        classes = conjugacy_classes(group)
        assert sum(c.size for c in classes) == group.order
        assert classes[0] == (El(0, 0, 0), 1)

    @pytest.mark.parametrize("p", ORACLE_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_closed_form_against_brute_force(self, p, variant):
        group = build_group(p, variant, p_bound=23)
        orbits, index = brute_force_classes(group)
        assert [(cls.rep, cls.size) for cls in conjugacy_classes(group)] == [(rep, len(o)) for rep, o in orbits]
        for x in GroupLaw(group).elements():
            assert class_index(group, class_rep(group, x)) == index[x]

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PROPERTY_P), variant=st.sampled_from([INERTIA, FULL]), data=st.data())
    def test_class_of_is_invariant_under_conjugation(self, p, variant, data):
        group = build_group(p, variant, p_bound=61)
        k = 1 if variant == FULL else 0

        def element():
            return El(data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, group.tau_order - 1)),
                      data.draw(st.integers(0, k)))

        x, g = element(), element()
        assert class_rep(group, GroupLaw(group).conjugate(g, x)) == class_rep(group, x)

    # class_index takes representatives alone: every other element raises
    @pytest.mark.parametrize("p", ALL_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_class_index_of_a_non_representative_raises(self, p, variant):
        group = build_group(p, variant)
        classes = conjugacy_classes(group)
        for x in GroupLaw(group).elements():
            if class_rep(group, x) == x:
                assert classes[class_index(group, x)].rep == x
            else:
                with pytest.raises(UsageError) as err:
                    class_index(group, x)
                assert err.value.code == "not_a_representative"

    def test_class_count_equals_row_count(self):
        for variant in (INERTIA, FULL):
            table = character_table(build_group(3, variant))
            assert len(table.rows) == len(table.classes)


class TestCharacterTables:
    @pytest.mark.parametrize("p", ALL_P)
    def test_inertia_dimension_multiset(self, p):
        table = character_table(build_group(p, INERTIA))
        assert Counter(r.dimension for r in table.rows) == {1: 2 * (p - 1), p - 1: 2}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_full_dimension_multiset(self, p):
        table = character_table(build_group(p, FULL))
        assert Counter(r.dimension for r in table.rows) == {1: 2 * (p - 1), 2: (p - 1) // 2, p - 1: 4}

    def test_full_p3_dimension_multiset(self):
        # for p = 3 the two-dimensional induced rows join the lifted ones
        table = character_table(build_group(3, FULL))
        assert Counter(r.dimension for r in table.rows) == {1: 4, 2: 5}

    @pytest.mark.parametrize("p", ALL_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_sum_of_squares_and_orthogonality(self, p, variant):
        table = character_table(build_group(p, variant))
        assert sum(r.dimension**2 for r in table.rows) == table.group.order
        assert_orthogonal(table)

    @pytest.mark.parametrize("p", ORACLE_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_values_have_int_coordinates(self, p, variant):
        # every character value is an algebraic integer, held in Z[zeta_m]
        for r in character_table(build_group(p, variant, p_bound=23)).rows:
            for value in r.values:
                assert all(type(c) is int for c in value.coeffs), r.label

    @pytest.mark.parametrize("p", ALL_P)
    def test_one_dimensional_values_are_roots_of_unity(self, p):
        for variant in (INERTIA, FULL):
            table = character_table(build_group(p, variant))
            for row in table.rows:
                if row.dimension != 1:
                    continue
                one = Cyclotomic.rational(row.values[0].m, 1)
                for value in row.values:
                    assert value * value.conjugate() == one


class TestFaithfulness:
    @pytest.mark.parametrize("p", ALL_P)
    def test_inertia_dichotomy(self, p):
        table = character_table(build_group(p, INERTIA))
        faithful = [r for r in table.rows if r.faithful and r.dimension == p - 1]
        assert len(faithful) == 1
        assert faithful[0].label == "wild-"

    @pytest.mark.parametrize("p", ALL_P)
    def test_full_dichotomy_with_gauss_values(self, p):
        table = character_table(build_group(p, FULL))
        faithful = [r for r in table.rows if r.faithful and r.dimension == p - 1]
        assert len(faithful) == 2
        idx = class_index(table.group, SIGMA_PHI)
        g = gauss_sum(p)
        values = {r.values[idx] for r in faithful}
        assert values == {g, -g}

    def test_trivial_character_kernel_is_whole_group(self):
        group = build_group(5, INERTIA)
        table = character_table(group)
        assert kernel_size(table, row(table, "tame0")) == group.order

    def test_wild_plus_kernel_contains_nu(self):
        group = build_group(5, INERTIA)
        table = character_table(group)
        wild_plus = row(table, "wild+")
        assert not wild_plus.faithful
        assert kernel_size(table, wild_plus) == 2
        assert value_at(table, wild_plus, GroupLaw(group).nu()) == Cyclotomic.rational(wild_plus.values[0].m, 4)

    def test_wild_minus_is_faithful(self):
        group = build_group(5, INERTIA)
        table = character_table(group)
        wild_minus = row(table, "wild-")
        assert wild_minus.faithful
        assert kernel_size(table, wild_minus) == 1

    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    @pytest.mark.parametrize("p", ORACLE_P)
    def test_flag_equals_kernel_of_every_row(self, p, variant):
        # the table sizes kernels of the induced rows only; the oracle sizes every row's
        group = build_group(p, variant, p_bound=p)
        table = character_table(group)
        for r in table.rows:
            assert _kernel_size(table.classes, r.values, r.dimension) == kernel_size(table, r), r.label
            assert (kernel_size(table, r) == 1) == r.faithful, r.label


class TestInducedCharacter:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_dimension_at_identity(self, p):
        values = _induced_row(build_group(p, INERTIA), 1, None)
        assert values[0] == Cyclotomic.rational(values[0].m, p - 1)

    def test_nu_value_of_untwisted_induction(self):
        group = build_group(5, INERTIA)
        values = _induced_row(group, 1, None)
        assert values[class_index(group, GroupLaw(group).nu())] == Cyclotomic.rational(5, 4)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sigma_phi_values(self, p):
        group = build_group(p, FULL)
        idx = class_index(group, SIGMA_PHI)
        assert _induced_row(group, -1, -1)[idx] == -gauss_sum(p)
        assert _induced_row(group, -1, 1)[idx] == gauss_sum(p)

    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    @pytest.mark.parametrize("p", ORACLE_P)
    def test_closed_form_against_generic_induction(self, p, variant):
        group = build_group(p, variant, p_bound=p)
        for nu_sign in (1, -1):
            for phi_sign in ((None,) if variant == INERTIA else (1, -1)):
                expected = generic_induced_row(group, nu_sign, phi_sign)
                assert _induced_row(group, nu_sign, phi_sign) == expected, (nu_sign, phi_sign)


class TestGaussSum:
    def test_p3_value(self):
        z = Cyclotomic.root_of_unity(3, 1)
        z2 = Cyclotomic.root_of_unity(3, 2)
        assert gauss_sum(3) == z - z2
        assert gauss_sum(3) * gauss_sum(3) == Cyclotomic.rational(3, -3)

    @pytest.mark.parametrize("p", ALL_P)
    def test_squares(self, p):
        sign = -1 if (p - 1) // 2 % 2 else 1
        assert gauss_sum(p) * gauss_sum(p) == Cyclotomic.rational(p, sign * p)

    @pytest.mark.parametrize("p", ALL_P)
    def test_embedding_sign_convention(self, p):
        re, im, err = gauss_sum(p).enclose(64)  # each part within err / 2^64 of the true one
        if p % 4 == 1:
            assert re - err > 0 and abs(im) <= err
        else:
            assert im - err > 0 and abs(re) <= err

    @pytest.mark.parametrize("p", [p for p in range(3, 100) if is_odd_prime(p)])
    def test_against_the_definition(self, p):
        expected = gauss_sum_by_definition(p)
        gauss_sum.cache_clear()
        for hits in range(2):  # formed, then read from the cache
            g = gauss_sum(p)
            assert g == expected
            assert g * g.conjugate() == Cyclotomic.rational(p, p)
            assert gauss_sum.cache_info().hits == hits

    @pytest.mark.parametrize("call, error", [
        (lambda: gauss_sum(3.0), (InputError, "p must be an odd prime, got a float")),
        (lambda: gauss_sum(True), (InputError, "p must be an odd prime, got a bool")),
        (lambda: gauss_sum(9), (InputError, "p must be an odd prime, got 9")),
        (lambda: build_group(3.0), (InputError, "p must be an odd prime, got a float")),
    ], ids=["gauss_sum(3.0)", "gauss_sum(True)", "gauss_sum(9)", "build_group(3.0)"])
    def test_a_bad_p_raises_after_p_3_is_cached(self, call, error):
        # 3.0 equals 3 and hashes alike, so a cache keyed on the value alone would answer for it
        gauss_sum(3), build_group(3)
        for _ in range(2):  # exceptions are not kept
            with pytest.raises(error[0]) as err:
                call()
            assert str(err.value) == error[1]


class TestRestrictionToInertia:
    @pytest.mark.parametrize("p", ALL_P)
    def test_faithful_rows_agree_on_inertia(self, p):
        full_table = character_table(build_group(p, FULL))
        inertia_table = character_table(build_group(p, INERTIA))
        faithful_full = [r for r in full_table.rows if r.faithful and r.dimension == p - 1]
        wild_minus = row(inertia_table, "wild-")
        for element in GroupLaw(inertia_table.group).elements():
            in_full = El(element.i, element.j, 0)
            expected = value_at(inertia_table, wild_minus, element)
            for r in faithful_full:
                assert value_at(full_table, r, in_full) == expected


class TestIdentifyPsi:
    @pytest.mark.parametrize("p", ALL_P)
    def test_even_case(self, p):
        row = identify_psi(build_group(p, INERTIA))
        assert row.label == "wild-"
        assert row.dimension == p - 1 and row.faithful

    @pytest.mark.parametrize("p", ALL_P)
    def test_odd_case(self, p):
        row = identify_psi(build_group(p, FULL))
        assert row.label == "wild--"
        assert row.construction_json() == {"kind": "induced", "nu": -1, "phi": -1}
        assert row.values[class_index(build_group(p, FULL), SIGMA_PHI)] == -gauss_sum(p)

    def test_bad_variant(self):
        with pytest.raises(UsageError) as err:
            identify_psi(GroupSpec(5, 2, "both"))
        assert err.value.code == "bad_variant"

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("p", ORACLE_P)
    def test_against_table_search(self, p, parity):
        # label, dimension, values, faithful flag and construction
        group = build_group(p, INERTIA if parity == "even" else FULL, p_bound=p)
        assert identify_psi(group) == psi_by_table_search(p, parity)

    def test_sigma_phi_is_its_class_representative(self):
        for p in ORACLE_P:
            group = build_group(p, FULL, p_bound=p)
            assert conjugacy_classes(group)[class_index(group, SIGMA_PHI)].rep == SIGMA_PHI

    def test_coset_element_outside_the_inertia_group(self):
        with pytest.raises(UsageError):
            class_index(build_group(5, INERTIA), SIGMA_PHI)
