"""End-to-end classification of the Galois representation.

``classify`` validates the maximal-inertia hypotheses, builds psi from the
closed-form induced rows (never a whole character table), and assembles the
full answer: the unramified character (its Frobenius value, an exact
cyclotomic), the finite-group factor psi, the Frobenius eigenvalue multiset,
the conductor exponent, and, for odd residue degree with budgets permitting,
a verification block comparing the twisted point count with the
representation-theoretic trace prediction and the closed form.

Reports are plain data and serialize deterministically: identical inputs
produce byte-identical JSON.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from . import padic
from .arith import power_exceeds, signed_p
from .config import CACHE_SIZE, DEFAULT_BUDGETS, Budgets
from .cyclotomic import Cyclotomic
from .errors import BudgetExceeded, GalrepError, InputError, InternalCheckError
from .groups import (FULL, INERTIA, SIGMA_PHI, CharacterRow, GroupSpec, build_group, class_index, conjugacy_classes,
                     gauss_sum, identify_psi)
from .json_writer import document, entries
from .padic import AssumptionReport, BaseField, InputPolynomial, conductor_exponent

SCHEMA_VERSION = 1


class ClassificationRefused(GalrepError):
    """The hypotheses could not all be certified; no answer is guessed."""

    def __init__(self, assumptions: AssumptionReport):
        self.failures = assumptions.failed_conditions()
        self.assumptions = assumptions
        super().__init__(f"hypotheses not certified: {', '.join(self.failures)}")

    def to_json_dict(self) -> dict:
        return {
            "refused": {
                "failures": self.failures,
                "assumptions": self.assumptions.to_json_dict(),
            }
        }


class Verification(NamedTuple):
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


class GroupSummary(NamedTuple):
    order: int
    b: int
    class_count: int

    def to_json_dict(self) -> dict:
        return {"order": self.order, "b": self.b, "class_count": self.class_count}


def _summary(group: GroupSpec) -> GroupSummary:
    return GroupSummary(group.order, group.b, len(conjugacy_classes(group)))


class Eigenvalue(NamedTuple):
    value: Cyclotomic
    multiplicity: int

    def to_json_dict(self) -> dict:
        return {"value": self.value, "multiplicity": self.multiplicity}


class ClassificationReport(NamedTuple):
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
        return {"input": self._input_json_dict(), **_assumption_json_dict(self.assumptions, self.conductor),
                **_model_json_dict(*self._model())}

    def _input_json_dict(self) -> dict:
        """The input entry, the one entry written anew for every report."""
        return {"p": self.p, "n": self.n, "f": [str(c) for c in self.f.coeffs]}

    def _model(self) -> tuple:
        """The records that depend on the model curve, so on (p, n), alone."""
        return (self.inertia_group, self.full_group, self.chi_frobenius, self.psi, self.psi_classes,
                self.eigenvalues, self.verification)

    def to_json(self) -> str:
        """``dump_json(self.to_json_dict())``, framed from kept text.  The
        text of the six model entries is kept per model, and that of the
        ``assumptions`` and ``conductor`` entries per assumption report and
        conductor: a certified f's depend on p, v(disc f) and the slope k/p
        alone, so the Eisenstein-after-shift inputs (k = 1) at p <= 13 make 18
        of them.  Both texts are keyed by value and by the type of each field
        of their records, so a hand-built or ``_replace``d report with other
        records writes its own text.  Only ``input``, and the model of a
        psi of more than ``_SHARED_ITEMS`` values, are written anew."""
        psi = self.psi
        if len(psi.values) > _SHARED_ITEMS:
            model = entries(_model_json_dict(*self._model()))
        else:
            model_types = tuple(map(type, chain(self.inertia_group, self.full_group or (), psi, psi.construction,
                                                *self.eigenvalues, self.verification)))
            model = _model_texts(model_types, *self._model())
        assumptions = self.assumptions
        return document([*model, *_assumption_texts(assumptions, self.conductor, tuple(map(type, assumptions))),
                         *entries({"input": self._input_json_dict()})])


def _assumption_json_dict(assumptions: AssumptionReport, conductor: int | None) -> dict:
    """A report's entries that depend on f through its assumption report."""
    return {
        "assumptions": assumptions.to_json_dict(),
        "conductor": {"status": "computed", "exponent": conductor}
        if conductor is not None
        else {"status": "not_computed"},
    }


def _model_json_dict(inertia_group: GroupSummary, full_group: GroupSummary | None, chi_frobenius: Cyclotomic,
                     psi: CharacterRow, psi_classes: tuple, eigenvalues: tuple[Eigenvalue, ...],
                     verification: Verification) -> dict:
    """A report's entries that depend on the model curve."""
    return {
        "schema": SCHEMA_VERSION,
        "groups": {
            "inertia": inertia_group.to_json_dict(),
            "full": full_group.to_json_dict() if full_group else None,
        },
        "chi": {
            "description": "unramified character, trivial on inertia",
            "frobenius_value": chi_frobenius,
        },
        "psi": {**psi.to_json_dict(), "classes": [cls.to_json_dict() for cls in psi_classes]},
        "eigenvalues": [e.to_json_dict() for e in eigenvalues],
        "verification": verification.to_json_dict(),
    }


# the text of each model's entries, keyed on the records they are written
# from and on the type of each of their fields, the least recently used
# dropped first: a few kilobytes per (p, n), of which p <= 13 and n <= 2 make
# 10.  Keys compare by value, and True == 1, so without the types a hand-built
# or _replace'd report with a 1 for a bool would be written with the kept
# true.  A psi of more values, such as the 2,524 at p = 1009 (28 MB of text),
# is written anew each time, without a lookup: holding its text while the
# report is joined and printed would add its size to the peak memory, and
# hashing it to look it up would take 11 ms on a 2-core Xeon VM.
@lru_cache(maxsize=CACHE_SIZE)
def _model_texts(field_types: tuple, *model) -> tuple:
    return tuple(entries(_model_json_dict(*model)))


# the text of the assumptions and conductor entries: a few hundred bytes per
# record.  Keyed on the value and on the type of each field, as 7 == 7.0 and
# True == 1 but each is read its own way
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _assumption_texts(assumptions: AssumptionReport, conductor: int | None, field_types: tuple) -> tuple:
    return tuple(entries(_assumption_json_dict(assumptions, conductor)))


_SHARED_ITEMS = 64


def _gauss_sum_power(p: int, n: int) -> Cyclotomic:
    """G^n for the Gauss sum G, from G^2 = (-1)^((p-1)/2) p: an integer for
    even n, an integer multiple of G for odd n."""
    scale = signed_p(p) ** (n // 2)
    return gauss_sum(p) * scale if n % 2 else Cyclotomic.rational(p, scale)


@lru_cache(maxsize=CACHE_SIZE)
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


def _twisted_closed_form(p: int, n: int) -> int:
    """The twisted trace -(+-p)^((n+1)/2) for odd n, +-p = 1 mod 4."""
    return -(signed_p(p) ** ((n + 1) // 2))


# the verdict per (p, n, budgets): like psi, it depends on the model curve
# alone, not on the input.  Typed, as True == 1 but the counter refuses a
# True for n.  A refusal or a skip (BudgetExceeded) raises, so is not kept.
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def verify_consistency(p: int, n: int, budgets: Budgets | None = None) -> Verification:
    """Compare the counted twisted trace with tr psi(s*f) * chi(Frob) and
    with the closed form -(+-p)^((n+1)/2), once per (p, n, budgets).

    All three are exact integers from independent routes, and the status is
    "ok" only when all three agree; any disagreement is reported as
    "mismatch", never raised.  The closed form is compared but not in the JSON.
    Only odd n are counted, so the finite-field counters load here, on the
    first count.
    """
    from .counting import count_twisted_fixed

    budgets = budgets or DEFAULT_BUDGETS
    group = build_group(p, FULL, budgets.group_p_bound)
    # the count's budgets are decided from the exponent: they bound n before G^n is formed
    counted = count_twisted_fixed(p, n, budgets).trace_sigma_frob
    trace_psi = identify_psi(group).values[class_index(group, SIGMA_PHI)]
    predicted_cyclo = trace_psi * _gauss_sum_power(p, n)
    if not predicted_cyclo.is_rational():
        raise InternalCheckError("predicted trace of a Frobenius-coset element is not rational")
    predicted = predicted_cyclo.as_rational()
    closed_form = _twisted_closed_form(p, n)
    match = counted == predicted == closed_form
    return Verification(status="ok" if match else "mismatch", trace_counted=counted,
                        trace_predicted=predicted, match=match, closed_form=closed_form)


def classify(f: InputPolynomial, K: BaseField, budgets: Budgets | None = None) -> ClassificationReport:
    """Full classification for a certified input; refuses otherwise.

    Raises :class:`ClassificationRefused` (carrying the assumption report)
    when any hypothesis fails or stays undetermined.
    """
    if f.p != K.p:
        raise InputError("p_mismatch", f"polynomial p = {f.p} but base field p = {K.p}")
    budgets = budgets or DEFAULT_BUDGETS
    p, n = f.p, K.n
    # the bound checks are cheap: refuse an out-of-bound p or n before any p-adic work
    group = build_group(p, FULL if n % 2 else INERTIA, budgets.group_p_bound)
    _check_printable(p, n)
    assumptions = padic.validate_assumptions(f)
    if not assumptions.maximal_inertia:
        raise ClassificationRefused(assumptions)
    g = (p - 1) // 2

    psi = identify_psi(group)

    chi_frob = _gauss_sum_power(p, n)
    if n % 2 == 0:
        eigenvalues = (Eigenvalue(chi_frob, 2 * g),)
    else:
        eigenvalues = (Eigenvalue(chi_frob, g), Eigenvalue(-chi_frob, g))

    conductor = conductor_exponent(assumptions)

    if n % 2:
        try:
            verification = verify_consistency(p, n, budgets)
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
        inertia_group=_summary(group._replace(variant=INERTIA)),
        full_group=_summary(group) if n % 2 else None,
        chi_frobenius=chi_frob,
        psi=psi,
        psi_classes=conjugacy_classes(group),
        eigenvalues=eigenvalues,
        conductor=conductor,
        verification=verification,
    )
