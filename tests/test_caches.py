"""Every cache of the package is bounded, so a long-lived caller that
classifies one prime after another holds a bounded amount of memory."""

import gc
import importlib
import tracemalloc
from pathlib import Path

import galrep
from galrep.arith import is_odd_prime
from galrep.config import CACHE_SIZE, Budgets
from galrep.padic import BaseField, InputPolynomial

MODULES = [importlib.import_module(f"galrep.{path.stem}")
           for path in sorted(Path(galrep.__file__).parent.glob("*.py")) if path.stem != "__main__"]


def _caches():
    """(name, lru_cache wrapper) for each one defined in a galrep module,
    methods included."""
    found = []
    for module in MODULES:
        for name, obj in vars(module).items():
            owners = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                owners += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            found += [(f"{module.__name__}.{label}", value) for label, value in owners
                      if hasattr(value, "cache_parameters") and getattr(value, "__module__", None) == module.__name__]
    return found


# every cache of the package by name: adding or removing one is a change to review here
CACHES = {
    "galrep.arith.smallest_primitive_root",
    "galrep.classify._assumption_texts",
    "galrep.classify._largest_printable",
    "galrep.classify._model_texts",
    "galrep.classify.verify_consistency",
    "galrep.cyclotomic._unit_circle",
    "galrep.cyclotomic.cyclotomic_polynomial",
    "galrep.groups._classes_and_index",
    "galrep.groups.gauss_sum",
    "galrep.groups.identify_psi",
}


def test_every_cache_has_the_one_bound():
    caches = _caches()
    assert sorted(name for name, _ in caches) == sorted(CACHES)
    assert [name for name, cache in caches if cache.cache_parameters()["maxsize"] != CACHE_SIZE] == []


# measured: 2.1 MB held with every cache bounded, 8.6 MB with the caches of
# the power table, the classes and psi unbounded
HELD_BOUND = 4 * 2**20


def test_classifying_prime_after_prime_holds_bounded_memory():
    primes = [p for p in range(3, 200) if is_odd_prime(p)]
    budgets = Budgets(group_p_bound=primes[-1])
    gc.collect()
    tracemalloc.start()
    try:
        for p in primes:
            galrep.classify(InputPolynomial.from_string(p, f"x^{p}-{p}"), BaseField(p, 1), budgets).to_json()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < HELD_BOUND, f"{held / 2**20:.1f} MB held"
