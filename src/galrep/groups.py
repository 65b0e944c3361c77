"""Metacyclic groups attached to the maximal-inertia setting, and their exact
character tables.

Two finite groups occur.  The inertia image is

    C_p x| C_{2(p-1)} = < s, t | s^p = t^{2(p-1)} = 1, t s t^-1 = s^b >

with b a primitive root mod p (we fix the smallest one; the choice only
relabels rows).  When the residue degree of the base field is odd, the
Galois image is the C_2-extension

    < s, t, f | ..., s f = f s, f t f = t^p >.

Elements are written in the normal form s^i t^j f^k, and nothing here
multiplies them: conjugacy classes are written down from the (j, k)
parameters, with sizes 1, p-1, p, 2 or 2p (``_class_list``), so no orbit is
ever enumerated, and ``class_index`` gives the position of a class from its
representative.  The tests carry the group law and the class of any
element, and compare the classes with brute-force orbits.

Character tables are built from the semidirect-product recipe for A x| H
with A abelian (Serre, *Linear Representations of Finite Groups*, 8.2):
pick orbit representatives of H on the characters of A; for each, induce
the stabilizer's irreducibles up from A*Stab.  Here the orbits are just
{trivial} and {everything else}, so the table splits into rows lifted from
the quotient by <s> and a few (p-1)-dimensional rows induced from the
centralizer of s.  For the extended group the same recipe is applied once
more to the quotient <t, f> to enumerate the lifted rows.  The induced
rows are written in closed form (``_induced_row``): each value is p-1, -1,
0 or a sign times the Gauss sum.  All values are exact cyclotomics with
conductor dividing 2p(p-1).

psi is an induced row: ``identify_psi(group)`` builds the induced rows alone
and caches psi per group.  Whole tables are built only on request, uncached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import legendre_symbol, require_odd_prime, smallest_primitive_root
from .config import CACHE_SIZE, DEFAULT_BUDGETS
from .cyclotomic import Cyclotomic
from .errors import InputError, InternalCheckError, UsageError

INERTIA = "inertia"
FULL = "full"


def _checked(cls, fields: tuple, types: tuple):
    """A record of ``cls`` from fields of exactly ``types``: dump_json writes
    a value by its exact type, so a True would be written as true where the
    schema has an int."""
    if any(type(x) is not t for x, t in zip(fields, types)):
        raise UsageError("bad_field", f"the fields of {cls.__name__} are {[t.__name__ for t in types]}, "
                         f"got {fields!r}")
    return tuple.__new__(cls, fields)


class _ElFields(NamedTuple):
    i: int
    j: int
    k: int


class El(_ElFields):
    """Group element in normal form s^i t^j f^k."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int):
        return _checked(cls, (i, j, k), (int, int, int))

    # the base class's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


class GroupSpec(NamedTuple):
    p: int
    b: int
    variant: str

    @property
    def tau_order(self) -> int:
        return 2 * (self.p - 1)

    @property
    def order(self) -> int:
        n = self.p * self.tau_order
        return 2 * n if self.variant == FULL else n


def build_group(p: int, variant: str = INERTIA, p_bound: int = DEFAULT_BUDGETS.group_p_bound) -> GroupSpec:
    """Group of the given variant with the smallest primitive root as b,
    searched once per p."""
    if variant not in (INERTIA, FULL):
        raise UsageError("bad_variant", f"unknown variant {variant!r}")
    check_p_bound(p, p_bound)
    require_odd_prime(p)
    return GroupSpec(p=p, b=smallest_primitive_root(p), variant=variant)


def check_p_bound(p: int, p_bound: int) -> None:
    """Refuse a p above the bound for groups and tables.  It is compared
    before p is tested for primality, as trial division on a p of many
    digits would take minutes."""
    if p > p_bound:
        raise InputError("p_beyond_bound", f"p = {p} exceeds the configured bound {p_bound}")


class _ConjClassFields(NamedTuple):
    rep: El
    size: int


class ConjClass(_ConjClassFields):
    """A conjugacy class: its lex-least member and its size."""

    __slots__ = ()

    def __new__(cls, rep: El, size: int):
        return _checked(cls, (rep, size), (El, int))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def to_json_dict(self) -> dict:
        return {"rep": list(self.rep), "size": self.size}


def _class_list(group: GroupSpec) -> list[ConjClass]:
    """Class representatives and sizes, written down from the (j, k) parameters.

    Conjugating s^i t^j by s^a moves i by a(1 - b^j), and by t^c multiplies
    i by b^c.  So for j = 0 mod p-1 (b^j = 1) the classes are {t^j} and the
    p-1 elements s^i t^j, i != 0; every other j gives one class t^j of size
    p.  In the full group f maps t^j to t^(pj), which is t^(j + p-1) for odd
    j: the odd classes merge in pairs.  Conjugating s^i t^j f by t^c gives
    s^(b^c i) t^(j - (p-1)c) f, so j matters mod p-1 only: for j != 0 mod
    p-1 all 2p such elements are one class, and for j = 0 mod p-1 they split
    into {f, t^(p-1) f} and two classes of size p-1, told apart by whether i
    is a square and whether j is 0.  Each representative is the lex-least
    member of its class.
    """
    p, to = group.p, group.tau_order
    classes = []
    for j in range(to):
        if j % (p - 1) == 0:
            classes += [ConjClass(El(0, j, 0), 1), ConjClass(El(1, j, 0), p - 1)]
        elif group.variant == INERTIA or j % 2 == 0:
            classes.append(ConjClass(El(0, j, 0), p))
        elif j < p - 1:  # odd j merges with j + p-1, the larger one
            classes.append(ConjClass(El(0, j, 0), 2 * p))
    if group.variant == FULL:
        classes += [ConjClass(El(0, 0, 1), 2), ConjClass(El(1, 0, 1), p - 1), ConjClass(El(1, p - 1, 1), p - 1)]
        classes += [ConjClass(El(0, j, 1), 2 * p) for j in range(1, p - 1)]
    classes.sort(key=lambda cls: cls.rep)
    return classes


@lru_cache(maxsize=CACHE_SIZE)
def _classes_and_index(group: GroupSpec) -> tuple[tuple[ConjClass, ...], dict[El, int]]:
    """The classes, and the position of each representative among them."""
    classes = tuple(_class_list(group))
    return classes, {cls.rep: idx for idx, cls in enumerate(classes)}


def conjugacy_classes(group: GroupSpec) -> tuple[ConjClass, ...]:
    """Conjugacy classes in closed form, lex-least representatives, sorted by them."""
    return _classes_and_index(group)[0]


SIGMA_PHI = El(1, 0, 1)  # s*f, the lex-least member of its class


def class_index(group: GroupSpec, rep: El) -> int:
    """Position in ``conjugacy_classes(group)`` of the class whose
    representative is ``rep``; any other element raises."""
    index = _classes_and_index(group)[1].get(rep)
    if index is None:
        raise UsageError("not_a_representative", f"{rep} represents no class of the {group.variant} group")
    return index


class CharacterRow(NamedTuple):
    label: str
    dimension: int
    values: tuple[Cyclotomic, ...]  # one per conjugacy class
    faithful: bool
    construction: tuple  # ("lifted", ...) | ("induced", nu_sign, phi_sign)

    def construction_json(self) -> dict:
        if self.construction[0] == "induced":
            _, nu_sign, phi_sign = self.construction
            out = {"kind": "induced", "nu": nu_sign}
            if phi_sign is not None:
                out["phi"] = phi_sign
            return out
        return {"kind": "lifted", "detail": list(self.construction[1:])}

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "dimension": self.dimension,
            "faithful": self.faithful,
            "construction": self.construction_json(),
            "values": list(self.values),
        }


class CharacterTable:
    """Conjugacy classes plus exact character values for one group."""

    def __init__(self, group: GroupSpec, classes: tuple[ConjClass, ...], rows: tuple[CharacterRow, ...]):
        self.group = group
        self.classes = classes
        self.rows = rows

    def to_json_dict(self) -> dict:
        return {
            **self.group._asdict(),
            "order": self.group.order,
            "classes": [cls.to_json_dict() for cls in self.classes],
            "rows": [row.to_json_dict() for row in self.rows],
        }


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def gauss_sum(p: int) -> Cyclotomic:
    """Quadratic Gauss sum: sum over a of (a|p) zeta_p^a, exact in Q(zeta_p).

    Its square is (-1)^((p-1)/2) * p; under the numeric embedding it is the
    positive real square root of p for p = 1 mod 4 and i*sqrt(p) for
    p = 3 mod 4.  Its coordinates are Legendre symbols less (-1|p), as
    zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)).

    Formed once per p, as every odd-n classify reads it twice.  The cache is
    typed, so a float or a bool is never taken for the int it equals, and a
    bad p raises on every call, as exceptions are never kept.
    """
    require_odd_prime(p)
    top = legendre_symbol(-1, p)
    return Cyclotomic(p, tuple([-top] + [legendre_symbol(a, p) - top for a in range(1, p - 1)]))


def _induced_row(group: GroupSpec, nu_sign: int, phi_sign: int | None) -> tuple[Cyclotomic, ...]:
    """Class values of the row induced from the centralizer of s: s -> zeta_p
    times the sign nu_sign on nu = t^(p-1) and phi_sign on f.

    The centralizer <s, nu> (<s, nu, f> in the full group) is normal with
    coset representatives t^a, a = 1..p-1, and t^a s^i nu^e f^k t^-a is
    s^(b^a i) nu^(e + ak) f^k.  So at a representative s^i t^j f^k, with
    e = j/(p-1) and sign = nu_sign^e phi_sign^k, the value is 0 off the
    centralizer (j != 0 mod p-1), and on it sign (p-1) at i = 0 and -sign
    at i != 0, as the b^a i run over all nonzero residues.  The exception is
    k = 1 with nu_sign = -1: the terms carry (-1)^a = (b^a | p), giving 0
    at i = 0 and sign G at i = 1, G the Gauss sum (Serre, *Linear
    Representations of Finite Groups*, 8.2).
    """
    p = group.p
    zero = Cyclotomic.zero(p)
    values = []
    for (i, j, k), _ in conjugacy_classes(group):
        if j % (p - 1):
            values.append(zero)
            continue
        sign = (nu_sign if j else 1) * (phi_sign if k else 1)
        if k and nu_sign < 0:
            values.append(gauss_sum(p) * sign if i else zero)
        else:
            values.append(Cyclotomic.rational(p, -sign if i else sign * (p - 1)))
    return tuple(values)


def _wild_rows(group: GroupSpec) -> list[CharacterRow]:
    """The rows induced from the centralizer of s, wild+- (inertia) or
    wild+-+- (full), faithful when their kernel is trivial."""
    dim = group.p - 1
    rows = []
    for nu_sign in (1, -1):
        for phi_sign in (None,) if group.variant == INERTIA else (1, -1):
            tag = "wild" + "".join("+" if sign > 0 else "-" for sign in (nu_sign, phi_sign) if sign is not None)
            values = _induced_row(group, nu_sign, phi_sign)
            rows.append(CharacterRow(tag, dim, values, _kernel_size(conjugacy_classes(group), values, dim) == 1,
                                     ("induced", nu_sign, phi_sign)))
    return rows


def _kernel_size(classes: tuple[ConjClass, ...], values: tuple[Cyclotomic, ...], dimension: int) -> int:
    target = Cyclotomic.rational(values[0].m, dimension)
    return sum(cls.size for cls, v in zip(classes, values) if v == target)


def _lifted_inertia_row(classes, roots, c: int) -> tuple[str, tuple[Cyclotomic, ...]]:
    to = len(roots)
    return f"tame{c}", tuple(roots[c * cls.rep.j % to] for cls in classes)


def _lifted_full_1d_row(classes, roots, c: int, phi_sign: int):
    # -zeta^e = zeta^(e + p-1) for zeta of order 2(p-1)
    to = len(roots)
    flip = to // 2 if phi_sign < 0 else 0
    values = tuple(roots[(c * cls.rep.j + (flip if cls.rep.k else 0)) % to] for cls in classes)
    label = f"tame{c}{'+' if phi_sign > 0 else '-'}"
    return label, values


def _lifted_full_2d_row(classes, twice, zero, c: int):
    # on t^j the value is zeta^(cj) + zeta^(cpj), and zeta^(cpj) = (-1)^(cj) zeta^(cj):
    # twice zeta^(cj) for even j, 0 for odd j (c is odd); 0 off <t>
    to = len(twice)
    values = tuple(zero if cls.rep.k or cls.rep.j % 2 else twice[c * cls.rep.j % to] for cls in classes)
    return f"tame2d{c}", values


def character_table(group: GroupSpec) -> CharacterTable:
    """Complete irreducible character table of either variant, built anew on each call."""
    classes = conjugacy_classes(group)
    p = group.p
    to = group.tau_order
    # the lifted rows take their values among the 2(p-1)-th roots of unity
    roots = [Cyclotomic.root_of_unity(to, e) for e in range(to)]
    # a lifted row factors through the quotient by the normal C_p = <s>, so s
    # lies in its kernel: only the induced rows can be faithful
    rows = _wild_rows(group)
    if group.variant == INERTIA:
        for c in range(to):
            label, values = _lifted_inertia_row(classes, roots, c)
            rows.append(CharacterRow(label, 1, values, False, ("lifted", c)))
    else:
        # rows factoring through the quotient <t, f>: the f-action t -> t^p
        # fixes exactly the even characters of <t> and pairs up the odd ones
        for c in range(0, to, 2):
            for phi_sign in (1, -1):
                label, values = _lifted_full_1d_row(classes, roots, c, phi_sign)
                rows.append(CharacterRow(label, 1, values, False, ("lifted", c, phi_sign)))
        twice = [r + r for r in roots]
        zero = Cyclotomic.zero(to)
        seen: set[int] = set()
        for c in range(1, to, 2):
            if c in seen:
                continue
            partner = c * p % to
            seen |= {c, partner}
            label, values = _lifted_full_2d_row(classes, twice, zero, min(c, partner))
            rows.append(CharacterRow(label, 2, values, False, ("lifted", min(c, partner), "pair")))
    rows.sort(key=lambda r: (r.dimension, r.label))
    if len(rows) != len(classes):
        raise InternalCheckError(
            f"row count {len(rows)} != class count {len(classes)} for p={p} {group.variant}"
        )
    if sum(r.dimension**2 for r in rows) != group.order:
        raise InternalCheckError(f"sum of squared dimensions != group order for p={p} {group.variant}")
    return CharacterTable(group, classes, tuple(rows))


@lru_cache(maxsize=CACHE_SIZE)
def identify_psi(group: GroupSpec) -> CharacterRow:
    """The finite-group factor psi of the Galois representation, cached per group.

    Even residue degree: the unique faithful induced row of the inertia
    group.  Odd: the faithful induced row of the full group whose value on
    s*f is minus the Gauss sum.  No other row is built, as no other can be
    faithful.  Anything but a unique match, by exact comparison, means the
    construction itself is broken.
    """
    if group.variant not in (INERTIA, FULL):
        raise UsageError("bad_variant", f"unknown variant {group.variant!r}")
    candidates = [row for row in _wild_rows(group) if row.faithful]
    if group.variant == FULL:
        idx = class_index(group, SIGMA_PHI)
        target = -gauss_sum(group.p)
        candidates = [row for row in candidates if row.values[idx] == target]
    if len(candidates) != 1:
        raise InternalCheckError(
            f"expected exactly one candidate for psi (p={group.p}, {group.variant}), found {len(candidates)}"
        )
    return candidates[0]
