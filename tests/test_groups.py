"""Group construction, conjugacy classes, character tables, Gauss sums, and
the selection of the finite-group factor psi.  Brute-force orbit enumeration
is the oracle for the closed-form conjugacy classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galrep.arith import is_odd_prime
from galrep.cyclotomic import Cyclotomic
from galrep.errors import InputError, UsageError
from galrep.groups import (
    FULL,
    INERTIA,
    SUBGROUP_C2P,
    SUBGROUP_CP_C2_C2,
    El,
    build_group,
    character_table,
    conjugacy_classes,
    faithful_kernel,
    gauss_sum,
    identify_psi,
    induced_character,
)

ALL_P = [3, 5, 7, 11, 13]
ORACLE_P = [p for p in range(3, 24) if is_odd_prime(p)]
PROPERTY_P = [p for p in range(3, 62) if is_odd_prime(p)]


def brute_force_classes(group):
    """Classes by orbit enumeration, O(|G|^2) conjugations: (lex-least
    representative, size) sorted by representative, and the class index of
    every element."""
    all_elements = list(group.elements())
    seen = set()
    orbits = []
    for x in all_elements:
        if x in seen:
            continue
        orbit = {group.conjugate(g, x) for g in all_elements}
        seen |= orbit
        orbits.append((min(orbit), orbit))
    orbits.sort(key=lambda item: item[0])
    index = {member: idx for idx, (_, orbit) in enumerate(orbits) for member in orbit}
    return [(rep, len(orbit)) for rep, orbit in orbits], index


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
        group = build_group(7, variant)
        els = list(group.elements())
        rng = random.Random(7)
        e = group.identity()
        for _ in range(200):
            a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
            assert group.mul(a, group.inv(a)) == e == group.mul(group.inv(a), a)

    @pytest.mark.parametrize("p", ALL_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_nu_commutes_with_sigma(self, p, variant):
        group = build_group(p, variant)
        s = El(1, 0, 0)
        nu = group.nu()
        assert group.mul(s, nu) == group.mul(nu, s)

    def test_defining_relations(self):
        group = build_group(5, FULL)
        s, t, f = El(1, 0, 0), El(0, 1, 0), El(0, 0, 1)
        tau_order = group.tau_order
        # t s t^-1 = s^b
        assert group.conjugate(t, s) == El(group.b, 0, 0)
        # f t f = t^p
        assert group.mul(group.mul(f, t), f) == El(0, group.p % tau_order, 0)
        # s f = f s
        assert group.mul(s, f) == group.mul(f, s)


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
        expected, index = brute_force_classes(group)
        assert [(cls.rep, cls.size) for cls in conjugacy_classes(group)] == expected
        table = character_table(group)
        for x in group.elements():
            assert table.class_of(x) == index[x]

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PROPERTY_P), variant=st.sampled_from([INERTIA, FULL]), data=st.data())
    def test_class_of_is_invariant_under_conjugation(self, p, variant, data):
        group = build_group(p, variant, p_bound=61)
        k = 1 if variant == FULL else 0

        def element():
            return El(data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, group.tau_order - 1)),
                      data.draw(st.integers(0, k)))

        table = character_table(group)
        x, g = element(), element()
        assert table.class_of(group.conjugate(g, x)) == table.class_of(x)

    def test_class_count_equals_row_count(self):
        for variant in (INERTIA, FULL):
            table = character_table(build_group(3, variant))
            assert len(table.rows) == len(table.classes)


class TestCharacterTables:
    @pytest.mark.parametrize("p", ALL_P)
    def test_inertia_dimension_multiset(self, p):
        table = character_table(build_group(p, INERTIA))
        assert table.dimension_multiset() == {1: 2 * (p - 1), p - 1: 2}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_full_dimension_multiset(self, p):
        table = character_table(build_group(p, FULL))
        assert table.dimension_multiset() == {1: 2 * (p - 1), 2: (p - 1) // 2, p - 1: 4}

    def test_full_p3_dimension_multiset(self):
        # for p = 3 the two-dimensional induced rows join the lifted ones
        table = character_table(build_group(3, FULL))
        assert table.dimension_multiset() == {1: 4, 2: 5}

    @pytest.mark.parametrize("p", ALL_P)
    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    def test_sum_of_squares_and_orthogonality(self, p, variant):
        table = character_table(build_group(p, variant))
        order = table.group.order
        assert sum(r.dimension**2 for r in table.rows) == order
        for i, r in enumerate(table.rows):
            for j in range(i, len(table.rows)):
                s = table.rows[j]
                expected = Fraction(order if i == j else 0)
                assert table.inner_product(r, s) == expected, (r.label, s.label)

    @pytest.mark.parametrize("p", ALL_P)
    def test_one_dimensional_values_are_roots_of_unity(self, p):
        for variant in (INERTIA, FULL):
            table = character_table(build_group(p, variant))
            for row in table.rows:
                if row.dimension != 1:
                    continue
                one = Cyclotomic.one(row.values[0].m)
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
        idx = table.sigma_phi_class()
        g = gauss_sum(p)
        values = {r.values[idx] for r in faithful}
        assert values == {g, -g}

    def test_trivial_character_kernel_is_whole_group(self):
        group = build_group(5, INERTIA)
        table = character_table(group)
        assert faithful_kernel(group, table.row("tame0")) == group.order

    def test_wild_plus_kernel_contains_nu(self):
        group = build_group(5, INERTIA)
        table = character_table(group)
        row = table.row("wild+")
        assert not row.faithful
        assert faithful_kernel(group, row) == 2
        assert table.value_at(row, group.nu()) == Cyclotomic.rational(row.values[0].m, 4)

    def test_wild_minus_is_faithful(self):
        group = build_group(5, INERTIA)
        assert faithful_kernel(group, character_table(group).row("wild-")) == 1

    @pytest.mark.parametrize("variant", [INERTIA, FULL])
    @pytest.mark.parametrize("p", ORACLE_P)
    def test_flag_equals_kernel_of_every_row(self, p, variant):
        # the table sizes kernels of the induced rows only; the oracle sizes every row's
        group = build_group(p, variant, p_bound=p)
        for row in character_table(group).rows:
            assert (faithful_kernel(group, row) == 1) == row.faithful, row.label


class TestInducedCharacter:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_dimension_at_identity(self, p):
        group = build_group(p, INERTIA)
        values = induced_character(group, SUBGROUP_C2P, {"nu": 1})
        assert values[0] == Cyclotomic.rational(values[0].m, p - 1)

    def test_nu_value_of_untwisted_induction(self):
        group = build_group(5, INERTIA)
        table = character_table(group)
        values = induced_character(group, SUBGROUP_C2P, {"nu": 1})
        assert values[table.class_of(group.nu())] == Cyclotomic.rational(5, 4)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sigma_phi_values(self, p):
        group = build_group(p, FULL)
        table = character_table(group)
        idx = table.sigma_phi_class()
        minus_minus = induced_character(group, SUBGROUP_CP_C2_C2, {"nu": -1, "phi": -1})
        minus_plus = induced_character(group, SUBGROUP_CP_C2_C2, {"nu": -1, "phi": 1})
        assert minus_minus[idx] == -gauss_sum(p)
        assert minus_plus[idx] == gauss_sum(p)

    def test_subgroup_validation(self):
        with pytest.raises(UsageError):
            induced_character(build_group(5, INERTIA), SUBGROUP_CP_C2_C2, {"nu": 1, "phi": 1})
        with pytest.raises(UsageError):
            induced_character(build_group(5, FULL), "C7", {"nu": 1})


class TestGaussSum:
    def test_p3_value(self):
        z = Cyclotomic.root_of_unity(3, 1)
        z2 = Cyclotomic.root_of_unity(3, 2)
        assert gauss_sum(3) == z - z2
        assert gauss_sum(3) ** 2 == Cyclotomic.rational(3, -3)

    @pytest.mark.parametrize("p", ALL_P)
    def test_squares(self, p):
        sign = -1 if (p - 1) // 2 % 2 else 1
        assert gauss_sum(p) ** 2 == Cyclotomic.rational(p, sign * p)

    @pytest.mark.parametrize("p", ALL_P)
    def test_embedding_sign_convention(self, p):
        z = gauss_sum(p).embed()
        if p % 4 == 1:
            assert z.real > 0 and abs(z.imag) < 1e-9
        else:
            assert z.imag > 0 and abs(z.real) < 1e-9


class TestRestrictionToInertia:
    @pytest.mark.parametrize("p", ALL_P)
    def test_faithful_rows_agree_on_inertia(self, p):
        full_table = character_table(build_group(p, FULL))
        inertia_table = character_table(build_group(p, INERTIA))
        faithful_full = [r for r in full_table.rows if r.faithful and r.dimension == p - 1]
        wild_minus = inertia_table.row("wild-")
        for element in inertia_table.group.elements():
            in_full = El(element.i, element.j, 0)
            expected = inertia_table.value_at(wild_minus, element)
            for row in faithful_full:
                assert full_table.value_at(row, in_full) == expected


class TestIdentifyPsi:
    @pytest.mark.parametrize("p", ALL_P)
    def test_even_case(self, p):
        row = identify_psi(p, "even")
        assert row.label == "wild-"
        assert row.dimension == p - 1 and row.faithful

    @pytest.mark.parametrize("p", ALL_P)
    def test_odd_case(self, p):
        row = identify_psi(p, "odd")
        assert row.label == "wild--"
        assert row.construction_json() == {"kind": "induced", "nu": -1, "phi": -1}
        table = character_table(build_group(p, FULL))
        assert row.values[table.sigma_phi_class()] == -gauss_sum(p)

    def test_bad_parity(self):
        with pytest.raises(UsageError):
            identify_psi(5, "both")
