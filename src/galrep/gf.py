"""Arithmetic in F_{p^m} in the polynomial basis.

A field is a ``FieldSpec`` carrying the prime, the degree and a fixed monic
irreducible modulus: the lexicographically smallest one, comparing
coefficient tuples (a_0, ..., a_{m-1}) with the constant term first.  No
Conway-polynomial tables: every computation stays inside one field, and
the twisted point count works in F_q itself (see ``galrep.counting``).

Elements are immutable coefficient tuples, and ``FieldSpec`` does their
arithmetic.  a -> a^p is F_p-linear, so each field carries one Frobenius
matrix, whose columns are x^(ip) mod f (``FieldSpec.frob_t``): it gives
the conjugates behind the irreducibility test, the trace and the norm
N(a) = a a^p ... a^(p^(m-1)).  The counters read the quadratic character
from a table over element indices (``FieldSpec.chi_table``), built once per
field by walking multiplication by g = x (g = 2 when m = 1) through the
cosets of <g> in F_q*, with chi(a) = (N(a) | p) for g and each coset seed.
Each step is one read of a successor table over element indices,
nxt[i] = index of g times element i, which is built by array slicing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

from .arith import require_odd_prime
from .errors import InputError, InternalCheckError

Coeffs = tuple[int, ...]


def _digits(index: int, p: int, k: int) -> list[int]:
    """The k base-p digits of index, little-endian."""
    digits = []
    for _ in range(k):
        index, r = divmod(index, p)
        digits.append(r)
    return digits


@dataclass(frozen=True)
class FieldSpec:
    p: int
    m: int
    modulus: Coeffs  # length m+1, monic

    @property
    def size(self) -> int:
        return self.p**self.m

    @cached_property
    def _reduction_rows(self) -> tuple[Coeffs, ...]:
        # x^(m+k) mod modulus for k = 0..m-2
        p, m, mod = self.p, self.m, self.modulus
        rows: list[Coeffs] = []
        cur = tuple((-c) % p for c in mod[:m])  # x^m mod modulus
        for _ in range(m - 1):
            rows.append(cur)
            lead = cur[-1]
            nxt = [0] + list(cur[:-1])
            if lead:
                base = rows[0]
                nxt = [(nxt[i] + lead * base[i]) % p for i in range(m)]
            cur = tuple(nxt)
        return tuple(rows)

    @cached_property
    def _frobenius_columns(self) -> tuple[Coeffs, ...]:
        # x^(ip) mod modulus for i = 0..m-1, from one power x^p
        if self.m == 1:
            return ((1,),)
        x_p = self.pow_t((0, 1) + (0,) * (self.m - 2), self.p)
        columns = [self.one_t(), x_p]
        for _ in range(self.m - 2):
            columns.append(self.mul_t(columns[-1], x_p))
        return tuple(columns)

    def one_t(self) -> Coeffs:
        return (1,) + (0,) * (self.m - 1)

    def add_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p, m = self.p, self.m
        if m == 1:
            return (a[0] * b[0] % p,)
        full = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        full[i + j] += ai * bj
        rows = self._reduction_rows
        out = [c % p for c in full[:m]]
        for k in range(m, 2 * m - 1):
            c = full[k] % p
            if c:
                row = rows[k - m]
                for i in range(m):
                    if row[i]:
                        out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def pow_t(self, a: Coeffs, e: int) -> Coeffs:
        result = self.one_t()
        base = a
        while e:
            if e & 1:
                result = self.mul_t(result, base)
            base = self.mul_t(base, base)
            e >>= 1
        return result

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

    def elements_t(self) -> Iterator[Coeffs]:
        for index in range(self.size):
            yield self.element_from_index(index)

    def chi_table(self) -> bytearray:
        """The quadratic character chi over element indices: 2 at a nonzero
        square, 1 at a non-square and 0 at 0.

        The walk multiplies by g = x, or by g = 2 when m = 1, one step per
        element, reading each product's index from the successor table of
        ``_times_x_successors``.  It labels each coset h<g> of F_q* in turn,
        using chi(h g^j) = chi(h) chi(g)^j, so chi is computed only for g
        and for each coset seed h, and no primitive element is needed.
        There chi(a) = a^((q-1)/2) = N(a)^((p-1)/2) is the Legendre symbol
        of the norm, a product of m conjugates (Lidl and Niederreiter,
        *Finite Fields*, ch. 2).
        """
        q = self.size
        g = (0, 1) + (0,) * (self.m - 2) if self.m > 1 else (2,)
        nxt = _times_x_successors(self)
        table = bytearray(q)
        flip = 0 if _norm_sign(self, g) > 0 else 3  # label ^ 3 swaps 2 and 1
        seed = table.find(0, 1)
        while seed != -1:
            label = start = 2 if _norm_sign(self, self.element_from_index(seed)) > 0 else 1
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
    x_m = field._reduction_rows[0]
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


def _poly_gcd_is_one(a: list[int], b: list[int], p: int) -> bool:
    # monic-normalizing Euclid over F_p; returns gcd == nonzero constant
    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(list(a)), trim(list(b))
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


def _is_irreducible(modulus: Coeffs, p: int, m: int) -> bool:
    """x^(p^m) = x mod f, and gcd(x^(p^d) - x, f) = 1 for proper divisors d.

    x^(p^d) is d applications of the Frobenius matrix of F_p[x]/(f), which
    is a ring map whether or not f is irreducible.
    """
    if m == 1:
        return True
    field = FieldSpec(p, m, modulus)
    x = (0, 1) + (0,) * (m - 2)
    cur = x
    for d in range(1, m + 1):
        cur = field.frob_t(cur)
        if d < m and m % d == 0:
            diff = field.sub_t(cur, x)
            if not any(diff):
                return False
            if not _poly_gcd_is_one(list(diff), list(modulus), p):
                return False
    return cur == x


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
    forces reducibility, which prunes the scan without changing its result.
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
            if _is_irreducible(modulus, p, m):
                return FieldSpec(p, m, modulus)
    raise InternalCheckError(f"no irreducible polynomial of degree {m} over F_{p}")


def _norm_sign(field: FieldSpec, a: Coeffs) -> int:
    """chi(a) for a nonzero a: the Legendre symbol of N(a) = a a^p ... a^(p^(m-1)).

    A norm outside F_p* means the modulus is not irreducible, an internal
    fault.
    """
    p = field.p
    norm = conjugate = a
    for _ in range(field.m - 1):
        conjugate = field.frob_t(conjugate)
        norm = field.mul_t(norm, conjugate)
    if any(norm[1:]) or not norm[0]:
        raise InternalCheckError("the norm of a nonzero element is not in F_p*")
    return 1 if pow(norm[0], (p - 1) // 2, p) == 1 else -1
