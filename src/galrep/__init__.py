"""galrep: exact classification of Galois representations for hyperelliptic
curves y^2 = f(x) (f monic of odd prime degree p) with maximal wild inertia
image over unramified p-adic base fields.

The public surface mirrors the pipeline: validate the hypotheses
(:mod:`galrep.padic`), build the finite groups and their exact character
tables (:mod:`galrep.groups`), count points on the reduced model curve
(:mod:`galrep.counting`), and assemble the classification
(:mod:`galrep.classify`).

``import galrep`` loads no submodule.  The first use of any exported name
binds them all at once (PEP 562), so that every later use is a plain
attribute lookup, and a command line run loads only the modules its
command needs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "classify": ("ClassificationRefused", "ClassificationReport", "classify", "verify_consistency"),
    "config": ("Budgets",),
    "counting": ("CountResult", "TwistedCountResult", "count_curve", "count_twisted_fixed"),
    "cyclotomic": ("Cyclotomic", "cyclotomic_polynomial"),
    "errors": ("BudgetExceeded", "GalrepError", "InputError", "InternalCheckError", "UsageError"),
    "gf": ("FieldSpec", "build_field"),
    "groups": ("CharacterRow", "CharacterTable", "GroupSpec", "build_group", "character_table",
               "conjugacy_classes", "gauss_sum", "identify_psi"),
    "padic": ("AssumptionReport", "BaseField", "InputPolynomial", "conductor_exponent", "validate_assumptions"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
_EXPORTED = frozenset(__all__)


def __getattr__(name):
    """Bind the whole namespace on the first use of an exported name.  All
    of it at once: bound name by name, a submodule first loaded while a
    caller patches functions of another (as a profiler's wrappers do) would
    bind the patched ones for good."""
    if name not in _EXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = {}
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        namespace.update((export, getattr(module, export)) for export in names)
    for export, value in namespace.items():
        globals().setdefault(export, value)  # a name set on the package before stays
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _EXPORTED)


class _Package(types.ModuleType):
    """Keeps ``galrep.classify`` the function: importing the submodule of
    that name would otherwise bind the module over it on the package."""

    def __setattr__(self, name, value):
        if name in _EXPORTED and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
