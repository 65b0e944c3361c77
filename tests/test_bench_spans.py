"""The benchmark's traced check times a classify-batch operation by spans
that ``bench/spans.py`` wraps around galrep functions, found by name.  A
span whose every target was renamed away reads 0, and its time falls to
the request itself, so the traced run fails with every answer right.  This
catches such a rename in the tests, with the benchmark's own resolver, and
a change in how often each span fires, which moves the traced run's
allowance."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# every span a classify-batch operation fires, and how often the first 8
# rounds of ClassifyBatch(3), 144 operations, fire it after its warm-up.
# The gate keeps its verdict per (p, n, budgets), so after the warm-up its
# own span fires on every odd-n operation and none of the spans inside it
# do.  A lower count shrinks the traced run's allowance.  ROADMAP item 2 takes
# per-layer time from a profile instead and deletes the count test along
# with the wrappers.
CLASSIFY_BATCH_SPAN_COUNTS = {"classify.classify": 144, "classify.to_json": 76, "padic.validate_assumptions": 144,
                              "padic.conductor_exponent": 76, "groups.conjugacy_classes": 192,
                              "groups.identify_psi": 76, "cyclotomic.ops": 152, "classify.verify_consistency": 40}


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks a class's module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_bench("spans")


@pytest.mark.parametrize("name", list(CLASSIFY_BATCH_SPAN_COUNTS))
def test_each_classify_batch_span_has_a_target(spans, name):
    assert [target for target in spans.TARGETS[name] if spans._resolve(target) is not None] != []


def test_classify_batch_span_counts(spans):
    workload = load_bench("workloads").ClassifyBatch(3)
    assert workload.warm_up() is None
    recorder = spans.Recorder()
    recorder.install()
    try:
        for index in range(8):
            for op in workload.round(index):
                assert workload.check(op, workload.call(op)) is None
    finally:
        recorder.uninstall()
    assert Counter(span[0] for span in recorder.spans) == CLASSIFY_BATCH_SPAN_COUNTS
