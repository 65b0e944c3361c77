"""Test-side arithmetic that galrep itself does not need: integer powers of
cyclotomic values, the character inner product, and Euler's criterion in a
finite field."""

import math
from collections import Counter

from galrep.cyclotomic import Cyclotomic


def power(value, k):
    """value^k for k >= 0, by repeated multiplication."""
    result = Cyclotomic.rational(value.m, 1)
    for _ in range(k):
        result = result * value
    return result


def assert_orthogonal(table):
    """Row orthogonality: for each pair of rows r, s the sum of
    size * r(g) * conj(s(g)) over the classes, exact in Z[zeta_m] for m the
    lcm of the rows' conductors, is |G| for r = s and 0 otherwise."""
    order = table.group.order
    for i, r in enumerate(table.rows):
        for s in table.rows[i:]:
            m = math.lcm(r.values[0].m, s.values[0].m)
            terms = Counter()
            for cls, vr, vs in zip(table.classes, r.values, s.values):
                lift_r, lift_s = m // vr.m, m // vs.m
                for e1, c1 in enumerate(vr.coeffs):
                    for e2, c2 in enumerate(vs.coeffs):
                        if c1 and c2:  # conj(s(g)) contributes exponent -e2
                            terms[(e1 * lift_r - e2 * lift_s) % m] += cls.size * c1 * c2
            expected = order if s is r else 0
            assert Cyclotomic.from_terms(m, terms) == Cyclotomic.rational(m, expected), (r.label, s.label)


def euler_sign(field, a):
    """a^((q-1)/2) for a nonzero a of F_q, by one power: +1 or -1."""
    s = field.pow_t(a, (field.size - 1) // 2)
    if s == field.one_t():
        return 1
    assert s == field.scalar_t(-1), (a, s)
    return -1
