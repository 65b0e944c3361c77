"""Test-side arithmetic that galrep itself does not need: multiplicative
orders by taking each power, cyclotomic polynomials by dividing x^m - 1 by every Phi_d, integer powers of
cyclotomic values, the quadratic Gauss sum from its definition and its
square +-p, the character inner product, the kernel of a character as a
sum of class sizes, psi found by searching a whole character table,
the class of any group element by the rules of the closed-form classes,
products, powers, norms and the element list of a finite field, Euler's criterion,
Rabin's irreducibility test over F_p, the irreducibility test of galrep's
moduli as a yes/no answer, the twisted fixed-point count by direct scan of
F_{p^(n*p)}, the plain data of a report tree, which ``json.dumps``
writes as the oracle of galrep's JSON writer, the general lower hull of
a Newton polygon with every segment, where galrep asks only whether the
polygon is one segment, the number of y in F_q with Tr(y^2) = c from the
trace form's determinant, ten significant digits of a rational by an
exponent search and a rounded Fraction, where galrep asks decimal, the
p-adic valuation of a rational, where galrep's ``vp`` takes ints alone,
and the text renderers galrep's records once carried, which its CLI's one
writer of sums of terms replaced."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from galrep.arith import legendre_symbol, vp
from galrep.counting import TwistedCountResult
from galrep.cyclotomic import Cyclotomic
from galrep.gf import FieldSpec, _ben_or, _has_root, build_field
from galrep.groups import (FULL, INERTIA, SIGMA_PHI, ConjClass, El, build_group, character_table, class_index,
                           gauss_sum)
from galrep.polys import power_sums


def plain(tree):
    """``tree`` with each Cyclotomic as ``{"m", "coeffs"}`` (integer strings)
    and each ConjClass as ``{"rep", "size"}``, the dict of its
    ``to_json_dict``: the plain data for which ``json.dumps(plain(tree),
    indent=2, sort_keys=True)`` is the bytes galrep writes.  Other values are
    kept as they are, tuples included."""
    kind = type(tree)
    if kind is dict:
        return {key: plain(value) for key, value in tree.items()}
    if kind is list:
        return [plain(value) for value in tree]
    if kind is Cyclotomic:
        return {"m": tree.m, "coeffs": [str(c) for c in tree.coeffs]}
    if kind is ConjClass:
        return {"rep": list(tree.rep), "size": tree.size}
    return tree


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_divisors(m):
    """Phi_m as x^m - 1 divided by Phi_d for every proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_quotient(poly, cyclotomic_polynomial_by_divisors(d))
    return tuple(poly)


def _exact_quotient(num, den):
    """num / den, ascending coefficients, for a monic den that divides num."""
    num, d = list(num), len(den) - 1
    quotient = [0] * (len(num) - d)
    for k in reversed(range(len(quotient))):
        quotient[k] = c = num[k + d]
        if c:
            for i, a in enumerate(den):
                num[k + i] -= c * a
    assert not any(num), "the division left a remainder"
    return quotient


def power(value, k):
    """value^k for k >= 0, by repeated multiplication."""
    result = Cyclotomic.rational(value.m, 1)
    for _ in range(k):
        result = result * value
    return result


def order_by_powers(a, m):
    """The multiplicative order of the unit a mod m: the least k >= 1 with
    pow(a, k, m) == 1, each power taken anew."""
    return next(k for k in range(1, m + 1) if pow(a, k, m) == 1 % m)


def signed_p(p):
    """(-1)^((p-1)/2) p, the square of the quadratic Gauss sum: p when
    (p-1)/2 is even, -p when it is odd."""
    return -p if (p - 1) // 2 % 2 else p


def gauss_sum_by_definition(p):
    """The sum over a = 1..p-1 of (a|p) zeta_p^a, each Legendre symbol by
    Euler's criterion, a^((p-1)/2) = +-1 mod p."""
    return Cyclotomic.from_terms(p, {a: 1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)})


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


def kernel_size(table, row):
    """The order of the kernel of the character ``row`` of ``table``: the
    sizes of the classes where it takes its value at the identity, summed."""
    identity = [cls.rep for cls in table.classes].index(El(0, 0, 0))
    return sum(cls.size for cls, value in zip(table.classes, row.values) if value == row.values[identity])


def psi_by_table_search(p, n_parity):
    """psi as the whole table gives it: the rows of dimension p-1 whose
    kernel, sized over every class, is trivial, and for odd parity the one
    among them whose value at the class of s*f is minus the Gauss sum.  The
    search must pick exactly one row."""
    group = build_group(p, INERTIA if n_parity == "even" else FULL, p_bound=p)
    table = character_table(group)
    candidates = [row for row in table.rows if row.dimension == p - 1 and kernel_size(table, row) == 1]
    if n_parity == "odd":
        idx = class_index(group, SIGMA_PHI)
        candidates = [row for row in candidates if row.values[idx] == -gauss_sum(p)]
    assert len(candidates) == 1, (p, n_parity, [row.label for row in candidates])
    return candidates[0]


def class_rep(group, x):
    """The representative of the class of the element x, by the rules of
    ``groups._class_list``: a second statement of them, which the tests
    check against brute-force orbits."""
    p = group.p
    i, j, k = x
    if not k:
        if j % (p - 1) == 0:
            return El(1 if i else 0, j, 0)
        if group.variant == FULL and j % 2:
            j = min(j, (j + p - 1) % group.tau_order)
        return El(0, j, 0)
    if j % (p - 1) or not i:
        return El(0, j % (p - 1), 1)
    # (square i, j = 0) and (non-square i, j = p-1) are one class, the others the other
    return El(1, 0 if (legendre_symbol(i, p) == 1) == (j == 0) else p - 1, 1)


def mul_t(field, a, b):
    """a b in the field by Horner's rule in a: from a's top coefficient
    down, x times the running product, then plus a_i b."""
    p, x_m = field.p, field._x_m
    out = [0] * field.m
    for ai in reversed(a):
        top = out.pop()
        out.insert(0, 0)
        if top or ai:
            out = [(c + top * r + ai * bj) % p for c, r, bj in zip(out, x_m, b)]
    return tuple(out)


def pow_t(field, a, e):
    """a^e in the field for e >= 0, by square and multiply."""
    result = field.scalar_t(1)
    while e:
        if e & 1:
            result = mul_t(field, result, a)
        a = mul_t(field, a, a)
        e >>= 1
    return result


def norm_by_conjugates(field, a):
    """N(a) = a a^p ... a^(p^(m-1)) for a nonzero a, as an int of F_p*: the
    product of the conjugates from the field's Frobenius matrix."""
    norm = conjugate = a
    for _ in range(field.m - 1):
        conjugate = field.frob_t(conjugate)
        norm = mul_t(field, norm, conjugate)
    assert not any(norm[1:]) and norm[0], (a, norm)
    return norm[0]


def elements_t(field):
    """Every element of the field, in the order of its index."""
    return (field.element_from_index(index) for index in range(field.size))


def euler_sign(field, a):
    """a^((q-1)/2) for a nonzero a of F_q, by one power: +1 or -1."""
    s = pow_t(field, a, (field.size - 1) // 2)
    if s == field.scalar_t(1):
        return 1
    assert s == field.scalar_t(-1), (a, s)
    return -1


def trim(c):
    """The ascending coefficient list ``c`` without its zero leading terms."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_gcd_is_one(a, b, p):
    """gcd(a, b) over F_p is a nonzero constant, by monic-normalising Euclid
    on ascending coefficient lists."""
    a, b = trim(a), trim(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        db = len(b) - 1
        while len(a) - 1 >= db and a:
            shiftn = len(a) - 1 - db
            factor = a[-1] * inv_lead % p
            for i in range(len(b)):
                a[shiftn + i] = (a[shiftn + i] - factor * b[i]) % p
            a = trim(a)
        a, b = b, a
    return len(a) == 1


def rabin_is_irreducible(modulus, p, m):
    """Rabin's test: x^(p^m) = x mod f, and gcd(x^(p^d) - x, f) = 1 for the
    proper divisors d of m, with x^(p^d) by repeated pow_t(., p)."""
    if m == 1:
        return True
    field = FieldSpec(p, m, modulus)
    x = (0, 1) + (0,) * (m - 2)
    cur = x
    for d in range(1, m + 1):
        cur = pow_t(field, cur, p)
        if d < m and m % d == 0:
            diff = field.sub_t(cur, x)
            if not any(diff):
                return False
            if not poly_gcd_is_one(diff, modulus, p):
                return False
    return cur == x


def is_irreducible(field):
    """Whether the field's modulus is irreducible, by the test build_field
    runs on each candidate: no root in F_p, then Ben-Or's gcds."""
    return field.m == 1 or not _has_root(field.modulus, field.p) and _ben_or(field)


def naive_twisted_oracle(p, n):
    """The twisted fixed-point count of galrep.counting by direct scan.

    Walks all of F_{p^(n*p)} once, classifying each element e by its q-power
    (e^q = e collects the subfield, e^q = e - 1 the solutions of the first
    equation), then counts y solutions per x by scanning the subfield.
    """
    assert n % 2 == 1, n
    field = build_field(p, n * p)
    q = p**n
    one = field.scalar_t(1)
    subfield = set()
    solutions = []
    for e in elements_t(field):
        eq = pow_t(field, e, q)
        if eq == e:
            subfield.add(e)
        if eq == field.sub_t(e, one):
            solutions.append(e)
    affine = 0
    for x in solutions:
        t = field.sub_t(pow_t(field, x, p), x)
        affine += sum(1 for y in subfield if mul_t(field, y, y) == t)
    fixed = affine + 1
    return TwistedCountResult(p=p, n=n, affine_solutions=affine, fixed_points=fixed,
                              trace_sigma_frob=q + 1 - fixed)


def rational_vp(x, p):
    """The p-adic valuation of a nonzero int or Fraction: that of its
    numerator less that of its denominator."""
    x = Fraction(x)
    return vp(x.numerator, p) - vp(x.denominator, p)


class Segment(NamedTuple):
    root_valuation: Fraction
    multiplicity: int


def lower_hull(points):
    """The lower convex hull of points (x, height), sorted by x, as its
    segments in hull order, so with strictly decreasing root valuations
    (minus the slopes); heights may be ints or Fractions."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it is on or above the new chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [Segment(Fraction(y1 - y2, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def newton_polygon(coeffs, p):
    """The segments of the Newton polygon of a polynomial of degree >= 1
    with nonzero constant term, from the points (i, v_p(c_i)); their
    multiplicities sum to the degree."""
    coeffs = trim(coeffs)
    if len(coeffs) < 2:
        raise ValueError("a Newton polygon needs degree >= 1")
    if coeffs[0] == 0:
        raise ValueError("x divides the polynomial")
    return lower_hull([(i, rational_vp(c, p)) for i, c in enumerate(coeffs) if c])


def single_cluster_by_hull(diff, p):
    """The single-cluster check from the whole Newton polygon of a
    difference polynomial with nonzero constant term: one segment, whose
    root valuation is the w all the differences share, in the report's
    JSON form."""
    segments = newton_polygon(diff, p)
    return {"status": "yes", "w": str(segments[0].root_valuation)} if len(segments) == 1 else {"status": "no"}


def _det_mod_p(rows, p):
    """The determinant of a square integer matrix mod p, by Gaussian
    elimination over F_p."""
    rows = [[a % p for a in row] for row in rows]
    det = 1
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k] % p
        inverse = pow(rows[k][k], -1, p)
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] * inverse % p
            if factor:
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[k])]
    return det % p


def count_by_trace_form(field, c):
    """#{y in F_q : Tr(y^2) = c}, q = p^m, from the quadratic form
    Q(y) = Tr(y^2) over F_p alone, with no element of F_q formed.

    In the basis 1, x, ..., x^(m-1), Q has Gram matrix (Tr x^(i+j)) =
    (s_(i+j)), the power sums of the modulus's roots.  Its determinant D is
    taken mod p; it is nonzero, as the trace form of a separable extension
    is nondegenerate.  With eta the quadratic character of F_p, Lidl and
    Niederreiter, *Finite Fields*, Theorems 6.26 (m even) and 6.27 (m odd),
    give p^(m-1) + v(c) p^((m-2)/2) eta((-1)^(m/2) D), v(0) = p - 1 and
    v(c) = -1 otherwise, and p^(m-1) + p^((m-1)/2) eta((-1)^((m-1)/2) c D).
    """
    p, m = field.p, field.m
    s = power_sums(field.modulus, 2 * m - 1)
    det = _det_mod_p([[s[i + j] for j in range(m)] for i in range(m)], p)
    assert det, "the trace form is degenerate"
    if m % 2 == 0:
        v = p - 1 if c % p == 0 else -1
        return p ** (m - 1) + v * p ** ((m - 2) // 2) * legendre_symbol((-1) ** (m // 2) * det, p)
    return p ** (m - 1) + p ** ((m - 1) // 2) * legendre_symbol((-1) ** ((m - 1) // 2) * c * det, p)


def ten_digits_by_search(q):
    """``format(q, ".10g")`` for a nonzero rational, rounded half to even
    from its exact value: the decimal exponent found by a search over powers
    of ten, the ten digits by rounding a Fraction, and a carry to 10^10
    moved into the exponent."""
    a, ten = abs(q), Fraction(10)
    e = (a.numerator.bit_length() - a.denominator.bit_length()) * 30103 // 10**5  # near log10(a)
    while a >= ten ** (e + 1):
        e += 1
    while a < ten ** e:
        e -= 1
    digits = round(a / ten ** (e - 9))
    if digits == 10**10:
        digits, e = 10**9, e + 1
    mantissa = str(digits).rstrip("0")  # |q| rounds to 0.mantissa * 10^(e+1)
    if e < -4 or e >= 10:  # the exponents float formatting writes in scientific notation
        text = mantissa[0] + (f".{mantissa[1:]}" if mantissa[1:] else "") + f"e{e:+03d}"
    elif e < 0:
        text = "0." + "0" * (-e - 1) + mantissa
    else:
        whole, frac = mantissa[:e + 1].ljust(e + 1, "0"), mantissa[e + 1:]
        text = f"{whole}.{frac}" if frac else whole
    return f"-{text}" if q < 0 else text


def polynomial_text(f):
    """The text of an input polynomial, x^p down to the constant, as
    ``InputPolynomial.__str__`` once wrote it."""
    parts = []
    for k in range(f.p, -1, -1):
        c = f.coeffs[k]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        parts.append(f"{sign}{body}")
    return "".join(parts) or "0"


def cyclotomic_text(value):
    """The text of a value of Z[zeta_m], z_m^e in ascending e, as
    ``Cyclotomic.__str__`` once wrote it."""
    if not any(value.coeffs):
        return "0"
    parts = []
    for e, c in enumerate(value.coeffs):
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            sign = "-" if c < 0 else ("+" if parts else "")
            power = f"z{value.m}" if e == 1 else f"z{value.m}^{e}"
            parts.append(f"{sign}{mag}{power}")
    return "".join(parts)


def coeff_prefix(r):
    """What the CLI once wrote before √±p for the multiple r of the Gauss sum."""
    if r == 1:
        return ""
    if r == -1:
        return "-"
    return f"{r}*"
