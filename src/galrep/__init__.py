"""galrep: exact classification of Galois representations for hyperelliptic
curves y^2 = f(x) (f monic of odd prime degree p) with maximal wild inertia
image over unramified p-adic base fields.

The public surface mirrors the pipeline: validate the hypotheses
(:mod:`galrep.padic`), build the finite groups and their exact character
tables (:mod:`galrep.groups`), count points on the reduced model curve
(:mod:`galrep.counting`), and assemble the classification
(:mod:`galrep.classify`).
"""

from .classify import ClassificationReport, ClassificationRefused, classify, verify_consistency
from .config import Budgets
from .counting import CountResult, TwistedCountResult, count_curve, count_twisted_fixed
from .cyclotomic import Cyclotomic, cyclotomic_polynomial
from .errors import BudgetExceeded, GalrepError, InputError, InternalCheckError, UsageError
from .gf import FieldSpec, build_field
from .groups import (
    CharacterRow,
    CharacterTable,
    GroupSpec,
    build_group,
    character_table,
    conjugacy_classes,
    faithful_kernel,
    gauss_sum,
    identify_psi,
)
from .padic import (
    AssumptionReport,
    BaseField,
    InputPolynomial,
    NewtonPolygon,
    conductor_exponent,
    difference_polynomial,
    irreducibility_certificate,
    validate_assumptions,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BaseField",
    "BudgetExceeded",
    "Budgets",
    "CharacterRow",
    "CharacterTable",
    "ClassificationRefused",
    "ClassificationReport",
    "CountResult",
    "Cyclotomic",
    "FieldSpec",
    "GalrepError",
    "GroupSpec",
    "InputError",
    "InputPolynomial",
    "InternalCheckError",
    "NewtonPolygon",
    "TwistedCountResult",
    "UsageError",
    "build_field",
    "build_group",
    "character_table",
    "classify",
    "conductor_exponent",
    "conjugacy_classes",
    "count_curve",
    "count_twisted_fixed",
    "cyclotomic_polynomial",
    "difference_polynomial",
    "faithful_kernel",
    "gauss_sum",
    "identify_psi",
    "irreducibility_certificate",
    "validate_assumptions",
    "verify_consistency",
]
