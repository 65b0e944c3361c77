"""Arithmetic in F_{p^m} in the polynomial basis, plus the Frobenius-root
solver behind the twisted point count.

A field is a ``FieldSpec`` carrying the prime, the degree and a fixed monic
irreducible modulus: the lexicographically smallest one, comparing
coefficient tuples (a_0, ..., a_{m-1}) with the constant term first.  No
Conway-polynomial tables: compatibility between fields is handled by
explicit computations where needed (the subfield F_q inside F_{p^(n*p)} is
materialized as the fixed space of the q-power map).

Elements are immutable coefficient tuples wrapped in ``FieldElement``;
``FieldSpec`` exposes tuple-level arithmetic for the counting loops.  The
counters read the quadratic character from a table over element indices
(``quadratic_character_table``), built once per field by walking
multiplication by a fixed element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import mul
from typing import Callable, Iterator

from .arith import is_odd_prime
from .errors import BudgetExceeded, InputError, InternalCheckError, UsageError

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

    # -- tuple-level arithmetic (hot paths) ---------------------------------

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

    def zero_t(self) -> Coeffs:
        return (0,) * self.m

    def one_t(self) -> Coeffs:
        return (1,) + (0,) * (self.m - 1)

    def add_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_t(self, a: Coeffs, b: Coeffs) -> Coeffs:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg_t(self, a: Coeffs) -> Coeffs:
        p = self.p
        return tuple((-x) % p for x in a)

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

    def inv_t(self, a: Coeffs) -> Coeffs:
        if a == self.zero_t():
            raise UsageError("division_by_zero", "0 has no inverse")
        return self.pow_t(a, self.size - 2)

    def scalar_t(self, c: int) -> Coeffs:
        return (c % self.p,) + (0,) * (self.m - 1)

    def element_from_index(self, index: int) -> Coeffs:
        """index in base p, little-endian digits; enumerates the whole field."""
        return tuple(_digits(index, self.p, self.m))

    def elements_t(self) -> Iterator[Coeffs]:
        for index in range(self.size):
            yield self.element_from_index(index)

    def chi_table(self) -> bytearray:
        """The quadratic character chi as a table over element indices
        (``quadratic_character_table``).

        The walk multiplies by g = x + 1, or by g = 2 when m = 1: a shift by
        one place, the top coefficient folded back through x^m, plus the
        element itself.
        """
        p, m = self.p, self.m
        if m == 1:
            def times_g(v: list[int]) -> list[int]:
                return [2 * v[0] % p]
        else:
            x_m = self._reduction_rows[0]
            folds = [[c * r % p for r in x_m] for c in range(p)]

            def times_g(v: list[int]) -> list[int]:
                return [(a + b + c) % p for a, b, c in zip(v, chain((0,), v), folds[v[-1]])]

        return quadratic_character_table(p, m, times_g, lambda v: _euler_sign(self, tuple(v), self.size))

    # -- wrapped API ---------------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.m:
            raise UsageError("bad_element", f"expected {self.m} coefficients, got {len(c)}")
        return FieldElement(self, c)

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_t())

    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_t())

    def to_json_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


@dataclass(frozen=True)
class FieldElement:
    field: FieldSpec
    coeffs: Coeffs

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise UsageError("field_mismatch", "elements live in different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.add_t(self.coeffs, other.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.sub_t(self.coeffs, other.coeffs))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg_t(self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul_t(self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return FieldElement(self.field, self.field.inv_t(self.field.pow_t(self.coeffs, -e)))
        return FieldElement(self.field, self.field.pow_t(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_t(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


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
    """x^(p^m) = x mod f, and gcd(x^(p^d) - x, f) = 1 for proper divisors d."""
    field = FieldSpec(p, m, modulus)
    if m == 1:
        return True
    x = (0, 1) + (0,) * (m - 2)
    cur = x
    for d in range(1, m + 1):
        cur = field.pow_t(cur, p)
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
    if not is_odd_prime(p):
        raise InputError("p_not_odd_prime", f"p must be an odd prime, got {p}")
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


def quadratic_character(t: FieldElement, order: int | None = None) -> int:
    """0 for t = 0, +1 for a nonzero square, -1 otherwise (Euler's criterion).

    ``order`` defaults to the size of the element's own field; pass the size
    of a subfield to evaluate the subfield's character on an element known
    to lie in it.
    """
    field = t.field
    q = field.size if order is None else order
    if q % 2 == 0:
        raise UsageError("even_field_order", "quadratic character needs odd order")
    if t.is_zero():
        return 0
    s = field.pow_t(t.coeffs, (q - 1) // 2)
    if s == field.one_t():
        return 1
    if s == field.neg_t(field.one_t()):
        return -1
    raise UsageError("not_in_subfield", f"element is not in the subfield of order {q}")


def _euler_sign(field: FieldSpec, a: Coeffs, order: int) -> int:
    """a^((order-1)/2) for a nonzero a in the subfield of that order: +1 or -1.

    Any other value means a is outside that subfield, which every caller
    rules out, so it is an internal fault.
    """
    s = field.pow_t(a, (order - 1) // 2)
    if s == field.one_t():
        return 1
    if s == field.neg_t(field.one_t()):
        return -1
    raise InternalCheckError("Euler criterion returned a non-sign value")


def quadratic_character_table(p: int, k: int, times_g: Callable[[list[int]], list[int]],
                              euler: Callable[[list[int]], int]) -> bytearray:
    """The quadratic character of a field of size q = p^k, over element indices.

    Elements are coordinate lists (c_0, ..., c_{k-1}) with index sum c_j p^j,
    in coordinates where (1, 0, ..., 0) is the field's 1.  The table holds 2
    at a nonzero square, 1 at a non-square and 0 at 0.

    ``times_g`` multiplies by a fixed nonzero g.  The walk labels each coset
    h<g> of F_q* in turn, using chi(h g^j) = chi(h) chi(g)^j, so ``euler``
    (chi of one element by Euler's criterion) runs once for g and once per
    coset, and no primitive element is needed (Lidl and Niederreiter,
    *Finite Fields*, ch. 2).  Each step is one call of ``times_g``.
    """
    q = p**k
    powers = [p**j for j in range(k)]
    table = bytearray(q)
    flip = 0 if euler(times_g([1] + [0] * (k - 1))) > 0 else 3  # label ^ 3 swaps 2 and 1
    seed = table.find(0, 1)
    while seed != -1:
        v = _digits(seed, p, k)
        label = start = 2 if euler(v) > 0 else 1
        index = seed
        for _ in range(q):
            table[index] = label
            label ^= flip
            v = times_g(v)
            index = sum(map(mul, v, powers))
            if index == seed:
                break
        else:
            raise InternalCheckError("the walk by g did not return to its seed")
        if label != start:
            raise InternalCheckError("the walk by g returned with the other character value")
        seed = table.find(0, seed + 1)
    return table


def _frobenius_matrix(field: FieldSpec) -> list[list[int]]:
    """Matrix of the p-power map on the polynomial basis (columns = images)."""
    m = field.m
    xp = field.pow_t((0, 1) + (0,) * (m - 2) if m >= 2 else (0,), field.p)
    cols: list[Coeffs] = []
    cur = field.one_t()
    for _ in range(m):
        cols.append(cur)
        cur = field.mul_t(cur, xp)
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def _mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            f = arow[k]
            if f:
                brow = b[k]
                for j in range(n):
                    orow[j] = (orow[j] + f * brow[j]) % p
    return out


def _mat_pow(a: list[list[int]], e: int, p: int) -> list[list[int]]:
    n = len(a)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = a
    while e:
        if e & 1:
            result = _mat_mul(result, base, p)
        base = _mat_mul(base, base, p)
        e >>= 1
    return result


def _solve_and_kernel(mat: list[list[int]], rhs: list[int], p: int) -> tuple[list[int], list[list[int]], list[int]]:
    """One solution of mat*x = rhs, a kernel basis and the free columns, over F_p.

    Free variables are set to zero, making the result deterministic; the
    kernel vector of each free column is 1 there and 0 at the other free
    columns.  Raises when the system is inconsistent.
    """
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if a[r][col]:
                sel = r
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = pow(a[row][col], p - 2, p)
        a[row] = [v * inv % p for v in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(a[r][j] - f * a[row][j]) % p for j in range(n + 1)]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if a[r][n]:
            raise InternalCheckError("linear system is inconsistent")
    solution = [0] * n
    for r, col in enumerate(pivots):
        solution[col] = a[r][n]
    free_cols = [c for c in range(n) if c not in pivots]
    kernel: list[list[int]] = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-a[r][fc]) % p
        kernel.append(vec)
    return solution, kernel, free_cols


def _q_power_minus_identity(field: FieldSpec, n: int) -> list[list[int]]:
    p = field.p
    frob = _frobenius_matrix(field)
    qmat = _mat_pow(frob, n, p)
    for i in range(field.m):
        qmat[i][i] = (qmat[i][i] - 1) % p
    return qmat


def frobenius_coset(p: int, n: int, solver_np: int = 21) -> tuple[FieldSpec, FieldElement, FixedSubfield]:
    """The solutions of x^q = x - 1, q = p^n, as the coset x0 + F_q inside
    F_{p^(n*p)}.

    Any solution satisfies x^(q^p) = x - p = x, so the ambient field
    F_{p^(n*p)} contains the whole solution set, which is the coset
    x0 + F_q.  The equation is linear in x over F_p, so one Gaussian
    elimination of (q-power map - id) gives both x0, a solution of
    (q-power map - id) x = -1, and F_q, its kernel.  x0 is re-verified by
    direct exponentiation before being returned.
    """
    np_ = n * p
    if np_ > solver_np:
        raise BudgetExceeded(f"ambient degree {np_} exceeds the solver budget {solver_np}")
    field = build_field(p, np_)
    mat = _q_power_minus_identity(field, n)
    rhs = [(-1) % p] + [0] * (np_ - 1)
    solution, kernel, columns = _solve_and_kernel(mat, rhs, p)
    x0 = tuple(solution)
    q = p**n
    if field.pow_t(x0, q) != field.sub_t(x0, field.one_t()):
        raise InternalCheckError("frobenius_coset: verification x0^q = x0 - 1 failed")
    return field, FieldElement(field, x0), _fixed_space(field, n, kernel, columns)


def frobenius_root_solve(p: int, n: int, solver_np: int = 21) -> tuple[FieldSpec, FieldElement]:
    """A solution x0 of x^q = x - 1 with q = p^n, inside F_{p^(n*p)}
    (``frobenius_coset`` without the subfield)."""
    field, x0, _ = frobenius_coset(p, n, solver_np)
    return field, x0


@dataclass(frozen=True)
class FixedSubfield:
    """The copy of F_q (q = p^n) inside ``field``: the fixed space of the
    q-power map, with the kernel basis of (q-power map - id).

    ``basis[i]`` is 1 at ``columns[i]`` and 0 at the other columns listed,
    so an element's coordinates are its entries at ``columns``: no solve is
    needed.  Column 0 is always free (1^q = 1), so 1 has coordinates
    (1, 0, ..., 0).
    """

    field: FieldSpec
    n: int
    basis: tuple[Coeffs, ...]
    columns: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.field.p**self.n

    def embed(self, c) -> Coeffs:
        """The ambient element with coordinates c."""
        p = self.field.p
        out = [0] * self.field.m
        for ci, vec in zip(c, self.basis):
            if ci:
                out = [o + ci * b for o, b in zip(out, vec)]
        return tuple(o % p for o in out)

    def element_from_index(self, index: int) -> Coeffs:
        """The ambient element whose coordinates are the base-p digits of
        index, little-endian: enumerates F_q in the character table's order."""
        return self.embed(_digits(index, self.field.p, self.n))

    def coords(self, a: Coeffs) -> list[int]:
        """Coordinates of an ambient element, which must lie in F_q."""
        c = [a[j] for j in self.columns]
        if self.embed(c) != tuple(a):
            raise InternalCheckError(f"element is not in the subfield F_({self.field.p}^{self.n})")
        return c

    def chi_table(self) -> bytearray:
        """The quadratic character chi of F_q as a table over coordinate
        indices (``quadratic_character_table``).

        The walk multiplies by g = 1 + basis[-1] (2 when n = 1), an n x n
        matrix on the coordinates; Euler's criterion runs in the ambient field.
        """
        field, p, q = self.field, self.field.p, self.size
        g = field.add_t(field.one_t(), self.basis[-1])
        columns = [self.coords(field.mul_t(g, vec)) for vec in self.basis]
        rows = [list(row) for row in zip(*columns)]

        def times_g(v: list[int]) -> list[int]:
            return [sum(map(mul, row, v)) % p for row in rows]

        return quadratic_character_table(p, self.n, times_g, lambda v: _euler_sign(field, self.embed(v), q))


def fixed_subfield(field: FieldSpec, n: int) -> FixedSubfield:
    """F_q, q = p^n, inside ``field`` as the kernel of (q-power map - id)."""
    if field.m % n:
        raise UsageError("bad_subfield", f"F_(p^{n}) does not embed into F_(p^{field.m})")
    mat = _q_power_minus_identity(field, n)
    _, kernel, columns = _solve_and_kernel(mat, [0] * field.m, field.p)
    return _fixed_space(field, n, kernel, columns)


def _fixed_space(field: FieldSpec, n: int, kernel: list[list[int]], columns: list[int]) -> FixedSubfield:
    if len(kernel) != n:
        raise InternalCheckError(f"fixed space of the q-power map has dimension {len(kernel)} != {n}")
    return FixedSubfield(field, n, tuple(tuple(vec) for vec in kernel), tuple(columns))


def frobenius_fixed_subfield(field: FieldSpec, n: int) -> list[FieldElement]:
    """All p^n elements fixed by the q-power map, q = p^n (the copy of F_q),
    in coordinate-index order (see ``FixedSubfield``)."""
    subfield = fixed_subfield(field, n)
    return [FieldElement(field, subfield.element_from_index(i)) for i in range(subfield.size)]
