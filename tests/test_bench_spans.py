"""The benchmark's traced check times a classify-batch operation by spans
that ``bench/spans.py`` wraps around galrep functions, found by name.  A
span whose every target was renamed away reads 0, and its time falls to
the request itself, so the traced run fails with every answer right.  This
catches such a rename in the tests, with the benchmark's own resolver."""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# every span a classify-batch operation fires
CLASSIFY_BATCH_SPANS = ["classify.classify", "classify.to_json", "padic.validate_assumptions",
                        "padic.conductor_exponent", "groups.conjugacy_classes", "groups.identify_psi",
                        "cyclotomic.ops", "classify.verify_consistency"]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", CLASSIFY_BATCH_SPANS)
def test_each_classify_batch_span_has_a_target(spans, name):
    assert [target for target in spans.TARGETS[name] if spans._resolve(target) is not None] != []
