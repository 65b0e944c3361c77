"""Arithmetic in F_{p^m} in the polynomial basis.

A field is a ``FieldSpec`` carrying the prime, the degree and a fixed monic
irreducible modulus: the lexicographically smallest one, comparing
coefficient tuples (a_0, ..., a_{m-1}) with the constant term first.  Each
candidate without a root in F_p goes through Ben-Or's test,
gcd(x^(p^d) - x, f) = 1 for 2 <= d <= m/2, and ``build_field`` returns the
``FieldSpec`` that passed it.  No Conway-polynomial tables: every
computation stays inside one field, and the twisted point count works in
F_q itself (see ``galrep.counting``).

Elements are immutable coefficient tuples, and ``FieldSpec`` does their
arithmetic.  a -> a^p is F_p-linear, so each field carries one Frobenius
matrix, whose columns x^(ip) mod f are built by (m-1)p multiplications by
x, each a shift plus one multiple of x^m mod f, kept per field
(``FieldSpec.frob_t``).  The matrix serves Ben-Or's test and the trace
check of the counters' fibers.  For monic f the norm
N(a) = a a^p ... a^(p^(m-1)) is the resultant Res(f, a), which Euclid's
algorithm over F_p gives in O(m deg a) operations on ints; it is 0 exactly
when gcd(f, a) != 1, which is the gcd test of Ben-Or.  The counters read
the quadratic character from a table over element indices
(``FieldSpec.chi_table``), built once per field by walking multiplication
by g = x (g = 2 when m = 1) through the cosets of <g> in F_q*, with
chi(a) = (N(a) | p) for g and each coset seed, both by Euclid.  Each step
is one read of a successor table over element indices, nxt[i] = index of g
times element i, which is built by array slicing.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import product
from typing import NamedTuple

from .arith import legendre_symbol, require_odd_prime
from .errors import InputError, InternalCheckError

Coeffs = tuple[int, ...]


def _digits(index: int, p: int, k: int) -> list[int]:
    """The k base-p digits of index, little-endian."""
    digits = []
    for _ in range(k):
        index, r = divmod(index, p)
        digits.append(r)
    return digits


class _FieldSpecFields(NamedTuple):
    p: int
    m: int
    modulus: Coeffs  # length m+1, monic


class FieldSpec(_FieldSpecFields):
    # no __slots__: the cached properties are kept in the instance __dict__

    @property
    def size(self) -> int:
        return self.p**self.m

    @cached_property
    def _x_m(self) -> Coeffs:
        # x^m mod modulus: multiplying by x is a shift plus one multiple of it
        return tuple(-c % self.p for c in self.modulus[:-1])

    @cached_property
    def _frobenius_columns(self) -> tuple[Coeffs, ...]:
        # x^(ip) mod modulus for i = 0..m-1, stepping x^k to x^(k+1)
        p, m, x_m = self.p, self.m, self._x_m
        power = [1] + [0] * (m - 1)
        columns = [tuple(power)]
        for _ in range(m - 1):
            for _ in range(p):
                top = power.pop()
                power.insert(0, 0)
                if top:
                    power = [(c + top * r) % p for c, r in zip(power, x_m)]
            columns.append(tuple(power))
        return tuple(columns)

    def add_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def frob_t(self, a: Coeffs) -> Coeffs:
        """a^p = sum of a_i x^(ip), as a_i^p = a_i in F_p."""
        p = self.p
        out = [0] * self.m
        for ai, column in zip(a, self._frobenius_columns):
            if ai:
                for j, cj in enumerate(column):
                    out[j] += ai * cj
        return tuple(c % p for c in out)

    def scalar_t(self, c: int) -> Coeffs:
        return (c % self.p,) + (0,) * (self.m - 1)

    def element_from_index(self, index: int) -> Coeffs:
        """index in base p, little-endian digits; enumerates the whole field."""
        return tuple(_digits(index, self.p, self.m))

    def chi_table(self) -> bytearray:
        """The quadratic character chi over element indices: 2 at a nonzero
        square, 1 at a non-square and 0 at 0.

        The walk multiplies by g = x, or by g = 2 when m = 1, one step per
        element, reading each product's index from the successor table of
        ``_times_x_successors``.  It labels each coset h<g> of F_q* in turn,
        using chi(h g^j) = chi(h) chi(g)^j, so chi is computed only for g
        and for each coset seed h, and no primitive element is needed.
        There chi(a) = a^((q-1)/2) = N(a)^((p-1)/2) is the Legendre symbol
        of the norm (Lidl and Niederreiter, *Finite Fields*, ch. 1-2), which
        is Res(f, a), by Euclid, for g as for each seed; a zero resultant
        raises.  The table reads no Frobenius matrix.
        """
        q = self.size
        g = (0, 1) + (0,) * (self.m - 2) if self.m > 1 else (2,)
        nxt = _times_x_successors(self)
        table = bytearray(q)
        flip = 0 if _seed_sign(self, g) > 0 else 3  # label ^ 3 swaps 2 and 1
        seed = table.find(0, 1)
        while seed != -1:
            label = start = 2 if _seed_sign(self, self.element_from_index(seed)) > 0 else 1
            index = seed
            for _ in range(q):
                table[index] = label
                label ^= flip
                index = nxt[index]
                if index == seed:
                    break
            else:
                raise InternalCheckError("the walk by g did not return to its seed")
            if label != start:
                raise InternalCheckError("the walk by g returned with the other character value")
            seed = table.find(0, seed + 1)
        return table


def _times_x_successors(field: FieldSpec) -> array:
    """nxt[i] = the index of g times element i, for g = x (g = 2 when m = 1).

    Write i = low + top p^(m-1) and top (x^m mod f) = (c_0, ..., c_(m-1)).
    Then x times element i has digit 0 equal to c_0 and digit k + 1 equal
    to digit k of low plus c_(k+1), mod p.  So the top block of nxt holds
    c_0 + p v at position low, where v is low with each digit k raised by
    c_(k+1) mod p: the progression c_0, c_0 + p, ... with its positions
    permuted by ``_rotate_blocks``, with no Python work per element.
    """
    p, m, q = field.p, field.m, field.size
    if m == 1:
        nxt = array("I", range(0, p, 2))  # 2i for i < p/2, then 2i - p
        nxt.extend(range(1, p, 2))
        return nxt
    x_m = field._x_m
    nxt = array("I")
    for top in range(p):
        fold = [top * r % p for r in x_m]
        block = array("I", range(fold[0], q, p))
        for k in range(m - 1):
            if fold[k + 1]:
                _rotate_blocks(block, p ** (k + 1), fold[k + 1] * p**k)
        nxt += block
    return nxt


def _rotate_blocks(a: array, width: int, shift: int) -> None:
    """Rotate every block of width consecutive entries of a left by shift,
    in place: position s + i takes the entry at s + (i + shift) % width.
    Strided slices move one position of every block at once, and are used
    when there are at least as many blocks as positions."""
    src = a[:]
    if width * width <= len(a):
        for i in range(width):
            a[i::width] = src[(i + shift) % width::width]
    else:
        for s in range(0, len(a), width):
            a[s:s + width] = src[s + shift:s + width] + src[s:s + shift]


def _ben_or(field: FieldSpec) -> bool:
    """Ben-Or's test for a modulus f with no root in F_p: gcd(x^(p^d) - x, f)
    = 1 for d = 2..m/2, a gcd of 1 read as a nonzero resultant.  A
    reducible f has an irreducible factor of degree d <= m/2, which divides
    x^(p^d) - x; d = 1 would be a root, which the caller has ruled out.

    x^(p^d) is d applications of the Frobenius matrix of F_p[x]/(f), which
    is a ring map whether or not f is irreducible.
    """
    x = (0, 1) + (0,) * (field.m - 2)
    conjugate = x
    for d in range(1, field.m // 2 + 1):
        conjugate = field.frob_t(conjugate)
        if d > 1 and not _resultant(field.modulus, field.sub_t(conjugate, x), field.p):
            return False
    return True


def _has_root(modulus: Coeffs, p: int) -> bool:
    for c in range(p):
        acc = 0
        for coeff in reversed(modulus):
            acc = (acc * c + coeff) % p
        if acc == 0:
            return True
    return False


def build_field(p: int, m: int) -> FieldSpec:
    """F_{p^m} with the deterministic lex-smallest irreducible modulus.

    Lex order compares the coefficient tuple (a_0, ..., a_{m-1}) with the
    constant term first.  For m >= 2 a zero constant term or a root in F_p
    forces reducibility, which prunes the scan without changing its result;
    a candidate without a root is certified by ``_ben_or``, and the field
    returned is the one certified, its Frobenius matrix already built.
    """
    require_odd_prime(p)
    if m < 1:
        raise InputError("bad_degree", f"extension degree must be >= 1, got {m}")
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    for a0 in range(1, p):
        for rest in product(range(p), repeat=m - 1):
            modulus = (a0,) + rest + (1,)
            if _has_root(modulus, p):
                continue
            field = FieldSpec(p, m, modulus)
            if _ben_or(field):
                return field
    raise InternalCheckError(f"no irreducible polynomial of degree {m} over F_{p}")


def _resultant(f: Coeffs, g: Coeffs, p: int) -> int:
    """Res(f, g) mod p for a monic f of positive degree, by Euclid over F_p.

    With r = f mod g, Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r)
    Res(g, r), and Res(f, c) = c^(deg f) for a constant c.  It is 0 exactly
    when gcd(f, g) != 1, and for an irreducible f it is the norm
    N(g) = prod g(alpha) over the roots alpha of f (Lidl and Niederreiter,
    *Finite Fields*, ch. 1-2).
    """
    f, g = list(f), list(g)
    while g and not g[-1]:
        g.pop()
    res = 1
    while len(g) > 1:
        df, dg = len(f) - 1, len(g) - 1
        inverse = pow(g[-1], -1, p)
        for k in range(df - dg, -1, -1):  # f becomes f mod g in place
            c = f[k + dg] * inverse % p
            if c:
                f[k:k + dg] = [(a - c * b) % p for a, b in zip(f[k:k + dg], g)]
        del f[dg:]
        while f and not f[-1]:
            f.pop()
        if not f:
            return 0
        if df & dg & 1:
            res = -res
        res = res * pow(g[-1], df - len(f) + 1, p) % p
        f, g = g, f
    return res * pow(g[0], len(f) - 1, p) % p if g else 0


def _seed_sign(field: FieldSpec, a: Coeffs) -> int:
    """chi(a) for a nonzero a, g or a coset seed of the chi walk: the
    Legendre symbol of N(a) = Res(f, a).

    A zero resultant means a shares a factor with the modulus, which is
    then not irreducible, an internal fault.
    """
    norm = _resultant(field.modulus, a, field.p)
    if not norm:
        raise InternalCheckError("g or a coset seed shares a factor with the modulus")
    return legendre_symbol(norm, field.p)
