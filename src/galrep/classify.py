"""End-to-end classification of the Galois representation.

``classify`` validates the maximal-inertia hypotheses, builds the relevant
character tables, and assembles the full answer: the unramified character
(its Frobenius value, an exact cyclotomic), the finite-group factor psi,
the Frobenius eigenvalue multiset, the conductor exponent, and, for odd
residue degree with budgets permitting, a verification block comparing the
twisted point count with the representation-theoretic trace prediction and
the closed form.

Reports are plain data and serialize deterministically: identical inputs
produce byte-identical JSON.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import power_exceeds, signed_p
from .config import Budgets, default_budgets
from .counting import count_twisted_fixed
from .cyclotomic import Cyclotomic
from .errors import BudgetExceeded, GalrepError, InputError, InternalCheckError
from .groups import FULL, INERTIA, CharacterRow, CharacterTable, build_group, character_table, gauss_sum, identify_psi
from .padic import AssumptionReport, BaseField, InputPolynomial, conductor_exponent, validate_assumptions

SCHEMA_VERSION = 1


_encode_str = json.encoder.encode_basestring_ascii  # the C escaper of the json module
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,  # keeps the digit-limit ValueError
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dump_json(obj) -> str:
    """The one JSON format of every report and error: two-space indents and
    sorted keys.  Byte-identical output rests on it.

    The bytes are those the json module's ``dumps(obj, indent=2,
    sort_keys=True)`` gives for the types reports are made of: dicts with str
    keys, lists, str, int, bool and None.  Any other type raises TypeError.
    (With an indent, the json module encodes in pure Python, twice as slow,
    and leaves cyclic garbage behind.)
    """
    return _encode(obj, "\n")


def _encode(obj, newline: str) -> str:
    """``obj`` as JSON; ``newline`` starts each of its lines after the first."""
    kind = type(obj)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(obj)
    inner = newline + "  "
    # each body is joined from a temporary list and framed in one f-string,
    # so a large table is held at most twice while it is written
    if kind is list:
        if not obj:
            return "[]"
        try:  # a list of leaves (coefficients, failures) takes one pass
            body = ("," + inner).join([_LEAVES[type(x)](x) for x in obj])
        except KeyError:
            body = ("," + inner).join([_encode(x, inner) for x in obj])
        return f"[{inner}{body}{newline}]"
    if kind is dict:
        if not obj:
            return "{}"
        # a non-str key fails in sorted() or in _encode_str with TypeError
        body = ("," + inner).join([f"{_encode_str(k)}: {_encode(v, inner)}" for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


class ClassificationRefused(GalrepError):
    """The hypotheses could not all be certified; no answer is guessed."""

    def __init__(self, failures: list[str], assumptions: AssumptionReport):
        super().__init__(f"hypotheses not certified: {', '.join(failures)}")
        self.failures = failures
        self.assumptions = assumptions

    def to_json_dict(self) -> dict:
        return {
            "refused": {
                "failures": self.failures,
                "assumptions": self.assumptions.to_json_dict(),
            }
        }


@dataclass(frozen=True)
class Verification:
    status: str  # "ok" | "mismatch" | "skipped"
    trace_counted: int | None = None
    trace_predicted: int | None = None
    match: bool | None = None
    reason: str | None = None
    closed_form: int | None = None  # compared; the text output prints it on a mismatch, the JSON never

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.status == "skipped":
            out["reason"] = self.reason
        else:
            out["trace_counted"] = self.trace_counted
            out["trace_predicted"] = self.trace_predicted
            out["match"] = self.match
        return out


@dataclass(frozen=True)
class GroupSummary:
    order: int
    b: int
    class_count: int

    def to_json_dict(self) -> dict:
        return {"order": self.order, "b": self.b, "class_count": self.class_count}


@dataclass(frozen=True)
class Eigenvalue:
    value: Cyclotomic
    multiplicity: int

    def to_json_dict(self) -> dict:
        return {"value": self.value.to_json(), "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class ClassificationReport:
    p: int
    n: int
    f: InputPolynomial
    assumptions: AssumptionReport
    inertia_group: GroupSummary
    full_group: GroupSummary | None  # odd n only
    chi_frobenius: Cyclotomic  # value of the unramified character at Frobenius
    psi: CharacterRow
    psi_classes: tuple  # conjugacy classes the psi values are indexed by
    eigenvalues: tuple[Eigenvalue, ...]
    conductor: int | None
    verification: Verification

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "input": {
                "p": self.p,
                "n": self.n,
                "f": [str(c) for c in self.f.coeffs],
            },
            "assumptions": self.assumptions.to_json_dict(),
            "groups": {
                "inertia": self.inertia_group.to_json_dict(),
                "full": self.full_group.to_json_dict() if self.full_group else None,
            },
            "chi": {
                "description": "unramified character, trivial on inertia",
                "frobenius_value": self.chi_frobenius.to_json(),
            },
            "psi": {
                "label": self.psi.label,
                "dimension": self.psi.dimension,
                "faithful": self.psi.faithful,
                "construction": self.psi.construction_json(),
                "classes": [{"rep": list(c.rep), "size": c.size} for c in self.psi_classes],
                "values": [v.to_json() for v in self.psi.values],
            },
            "eigenvalues": [e.to_json_dict() for e in self.eigenvalues],
            "conductor": {"status": "computed", "exponent": self.conductor}
            if self.conductor is not None
            else {"status": "not_computed"},
            "verification": self.verification.to_json_dict(),
        }

    def to_json(self) -> str:
        return dump_json(self.to_json_dict())


def _gauss_sum_power(p: int, n: int) -> Cyclotomic:
    """G^n for the Gauss sum G, from G^2 = (-1)^((p-1)/2) p: a rational for
    even n, a rational multiple of G for odd n."""
    scale = Fraction(signed_p(p)) ** (n // 2)
    return gauss_sum(p) * scale if n % 2 else Cyclotomic.rational(p, scale)


@lru_cache(maxsize=None)
def _largest_printable(limit: int) -> int:
    """The largest integer of at most ``limit`` digits."""
    return 10**limit - 1


def _check_printable(p: int, n: int) -> None:
    """Refuse an n whose eigenvalues, of size p^(n//2), have more digits than
    Python converts to a string; decided from the exponent alone.  The bound
    is formed once per digit limit, which ``sys.set_int_max_str_digits`` can
    change."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and power_exceeds(p, n // 2, _largest_printable(limit)):
        raise InputError("residue_degree_too_large",
                         f"the Frobenius eigenvalues have size {p}^{n // 2}, more than {limit} digits")


@lru_cache(maxsize=None)
def _twisted_trace(p: int, n: int, budgets: Budgets) -> int:
    """The counted trace, once per (p, n, budgets): like the character
    tables, it depends on the model curve alone, not on the input."""
    return count_twisted_fixed(p, n, budgets).trace_sigma_frob


def _twisted_closed_form(p: int, n: int) -> int:
    """The twisted trace -(+-p)^((n+1)/2) for odd n, +-p = 1 mod 4."""
    return -(signed_p(p) ** ((n + 1) // 2))


def verify_consistency(p: int, n: int, budgets: Budgets | None = None,
                       psi: CharacterRow | None = None) -> Verification:
    """Compare the counted twisted trace with tr psi(s*f) * chi(Frob) and
    with the closed form -(+-p)^((n+1)/2).

    All three are exact integers from independent routes, and the status is
    "ok" only when all three agree; any disagreement is reported as
    "mismatch", never raised.  The closed form is compared but not in the JSON.
    """
    budgets = budgets or default_budgets()
    group = build_group(p, FULL, budgets.group_p_bound)
    # the count's budgets are decided from the exponent: they bound n before G^n is formed
    counted = _twisted_trace(p, n, budgets)
    if psi is None:
        psi = identify_psi(p, "odd", budgets.group_p_bound)
    table = character_table(group)
    trace_psi = psi.values[table.sigma_phi_class()]
    predicted_cyclo = trace_psi * _gauss_sum_power(p, n)
    if not predicted_cyclo.is_rational():
        raise InternalCheckError("predicted trace of a Frobenius-coset element is not rational")
    predicted_fraction = predicted_cyclo.as_rational()
    if predicted_fraction.denominator != 1:
        raise InternalCheckError("predicted trace is not a rational integer")
    predicted = int(predicted_fraction)
    closed_form = _twisted_closed_form(p, n)
    match = counted == predicted == closed_form
    return Verification(status="ok" if match else "mismatch", trace_counted=counted,
                        trace_predicted=predicted, match=match, closed_form=closed_form)


def classify(f: InputPolynomial, K: BaseField, budgets: Budgets | None = None) -> ClassificationReport:
    """Full classification for a certified input; refuses otherwise.

    Raises :class:`ClassificationRefused` (carrying the assumption report)
    when any hypothesis fails or stays undetermined.
    """
    budgets = budgets or default_budgets()
    # the bound checks are cheap: refuse an out-of-bound p or n before any p-adic work
    inertia_group = build_group(f.p, INERTIA, budgets.group_p_bound)
    _check_printable(f.p, K.n)
    assumptions = validate_assumptions(f, K)
    if not assumptions.maximal_inertia:
        raise ClassificationRefused(assumptions.failed_conditions(), assumptions)
    p, n = f.p, K.n
    parity = "even" if n % 2 == 0 else "odd"
    g = (p - 1) // 2

    inertia_table = character_table(inertia_group)
    inertia_summary = GroupSummary(inertia_table.group.order, inertia_table.group.b,
                                   len(inertia_table.classes))
    full_summary = None
    psi_table: CharacterTable = inertia_table
    if parity == "odd":
        full_table = character_table(build_group(p, FULL, budgets.group_p_bound))
        full_summary = GroupSummary(full_table.group.order, full_table.group.b,
                                    len(full_table.classes))
        psi_table = full_table
    psi = identify_psi(p, parity, budgets.group_p_bound)

    chi_frob = _gauss_sum_power(p, n)
    if parity == "even":
        eigenvalues = (Eigenvalue(chi_frob, 2 * g),)
    else:
        eigenvalues = (Eigenvalue(chi_frob, g), Eigenvalue(-chi_frob, g))

    conductor = conductor_exponent(f, K, assumptions)

    if parity == "odd":
        try:
            verification = verify_consistency(p, n, budgets, psi)
        except BudgetExceeded as exc:
            verification = Verification(status="skipped", reason=str(exc))
    else:
        verification = Verification(status="skipped",
                                    reason="even residue degree: no Frobenius-coset trace to count")

    return ClassificationReport(
        p=p,
        n=n,
        f=f,
        assumptions=assumptions,
        inertia_group=inertia_summary,
        full_group=full_summary,
        chi_frobenius=chi_frob,
        psi=psi,
        psi_classes=psi_table.classes,
        eigenvalues=eigenvalues,
        conductor=conductor,
        verification=verification,
    )
