"""Outside-in spans around galrep's public functions, for the traced run.

The benchmark does not rely on hooks inside galrep.  It replaces each
target function with a timing wrapper at the place its callers look it up
(the defining module, every module that imported the name, and the package
namespace), so calls made inside galrep are seen as well.  A span records
its name, start, end, parent span and request id; spans stay in memory and
are written out when the run ends.

A target that no longer exists after a refactor is listed as missing and
its metrics read 0; the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

# span name -> "module:attribute" targets.  A dotted attribute names a
# method or classmethod of a class in that module.
_CYCLOTOMIC_OPS = ("from_terms", "root_of_unity", "rational", "zero", "one", "__add__", "__sub__",
                   "__neg__", "__mul__", "__pow__", "conjugate", "lift")
TARGETS: dict[str, tuple[str, ...]] = {
    "padic.validate_assumptions": ("galrep.padic:validate_assumptions", "galrep.classify:validate_assumptions",
                                   "galrep:validate_assumptions"),
    "padic.poly_discriminant": ("galrep.padic:poly_discriminant", "galrep:poly_discriminant"),
    "padic.difference_root_valuations": ("galrep.padic:difference_root_valuations",
                                         "galrep:difference_root_valuations"),
    "padic.irreducibility_certificate": ("galrep.padic:irreducibility_certificate",
                                         "galrep:irreducibility_certificate"),
    "padic.conductor_exponent": ("galrep.padic:conductor_exponent", "galrep.classify:conductor_exponent",
                                 "galrep:conductor_exponent"),
    # named .cold on the first call per (p, variant) in the process, .warm after
    "groups.character_table": ("galrep.groups:character_table", "galrep.classify:character_table",
                               "galrep.cli:character_table", "galrep:character_table"),
    # the class computation itself sits behind the public conjugacy_classes
    "groups.conjugacy_classes": ("galrep.groups:_classes_and_index", "galrep.groups:conjugacy_classes",
                                 "galrep:conjugacy_classes"),
    "groups.identify_psi": ("galrep.groups:identify_psi", "galrep.classify:identify_psi", "galrep:identify_psi"),
    "cyclotomic.ops": tuple(f"galrep.cyclotomic:Cyclotomic.{op}" for op in _CYCLOTOMIC_OPS),
    "cyclotomic.embed": ("galrep.cyclotomic:Cyclotomic.embed",),
    "gf.build_field": ("galrep.gf:build_field", "galrep.counting:build_field", "galrep:build_field"),
    "gf.frobenius_root_solve": ("galrep.gf:frobenius_root_solve", "galrep.counting:frobenius_root_solve",
                                "galrep:frobenius_root_solve"),
    "gf.frobenius_fixed_subfield": ("galrep.gf:frobenius_fixed_subfield",
                                    "galrep.counting:frobenius_fixed_subfield", "galrep:frobenius_fixed_subfield"),
    "counting.count_curve": ("galrep.counting:count_curve", "galrep.cli:count_curve", "galrep:count_curve"),
    "counting.count_twisted_fixed": ("galrep.counting:count_twisted_fixed", "galrep.classify:count_twisted_fixed",
                                     "galrep.cli:count_twisted_fixed", "galrep:count_twisted_fixed"),
    "classify.classify": ("galrep.classify:classify", "galrep.cli:classify", "galrep:classify"),
    "classify.verify_consistency": ("galrep.classify:verify_consistency", "galrep.cli:verify_consistency",
                                    "galrep:verify_consistency"),
    "classify.to_json": ("galrep.classify:ClassificationReport.to_json",),
}

# work counters taken from the arguments of a call: span -> (counter, function)
_COUNTERS = {
    "padic.difference_root_valuations": ("padic.diff_degree", lambda f, *a, **k: f.p * (f.p - 1)),
    "counting.count_curve": ("counting.elements", lambda p, m, *a, **k: p**m),
    "counting.count_twisted_fixed": ("counting.elements", lambda p, n, *a, **k: p**n),
}

SETUP = "setup"


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, request, outermost]
        self.counters: dict[str, Counter] = {}
        self.request = SETUP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._seen_groups: set = set()
        self._installed: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        phase = SETUP if self.request == SETUP else "measured"
        self.counters.setdefault(phase, Counter())[name] += value

    def enter(self, name: str) -> int:
        index = len(self.spans)
        self._depth[name] += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, self._depth[name] == 1])
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.leave(index)

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        if name == "groups.character_table":
            def span_name(group, *args, **kwargs):
                key = (getattr(group, "p", group), getattr(group, "variant", None))
                if key in self._seen_groups:
                    return "groups.character_table.warm"
                self._seen_groups.add(key)
                self.count("groups.order_cold", getattr(group, "order", 0))
                return "groups.character_table.cold"
        else:
            def span_name(*args, **kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                try:
                    self.count(counter[0], counter[1](*args, **kwargs))
                except (TypeError, AttributeError):
                    pass  # a changed signature costs the counter, not the call
            index = self.enter(span_name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(index)

        return wrapper

    def install(self) -> None:
        """Put a wrapper on every target that exists; note the missing ones."""
        self.missing = []
        wrapped: dict[int, object] = {}  # one wrapper per original function
        for name, targets in TARGETS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, original = found
                func = original.__func__ if isinstance(original, classmethod) else original
                if id(func) not in wrapped:
                    wrapped[id(func)] = self._wrap(name, func)
                replacement = wrapped[id(func)]
                if isinstance(original, classmethod):
                    replacement = classmethod(replacement)
                setattr(owner, attr, replacement)
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- output ----------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": {k: dict(v) for k, v in self.counters.items()},
                "missing": self.missing}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)  # keeps classmethod objects intact
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Recorder()._wrap("bench.noop", noop)
    times = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - start)
    return max(0.0, (times[1] - times[0]) / calls)


def write_spans(path, dumps: list[dict]) -> None:
    """One JSON line per span, from one or more processes."""
    with open(path, "w") as out:
        for proc, dump in enumerate(dumps):
            for name, start, end, parent, request, outermost in dump["spans"]:
                out.write(json.dumps({"proc": proc, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "request": request, "outermost": outermost}) + "\n")


# -- aggregation ------------------------------------------------------------

LAYERS = ("padic", "groups", "cyclotomic", "gf", "counting", "classify", "cli")


def span_totals(dumps: list[dict], phase: str) -> dict[str, dict[str, float]]:
    """Per span name: outermost seconds, outermost calls and self seconds.

    ``phase`` is "setup" for spans of the warm-up and "measured" for the
    rest.  Self time is a span's duration minus that of its direct children.
    """
    totals: dict[str, dict[str, float]] = {}
    for dump in dumps:
        spans = dump["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, request, outermost in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent, request, outermost) in enumerate(spans):
            if (request == SETUP) != (phase == SETUP):
                continue
            entry = totals.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            duration = (end - start) / 1e9
            entry["self_s"] += duration - child_ns[index] / 1e9
            if outermost:
                entry["s"] += duration
                entry["calls"] += 1
    return totals


def layer_self(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per galrep layer: the span-name prefix before the first
    dot.  The benchmark's own bench.request spans are left out."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += entry["self_s"]
    return out


# per-layer metrics of the traced run: (metric, span, key).  Times are seconds
# per operation of the traced pass and calls are counts per operation, both
# over outermost spans; self_s sums every span of the name.
PER_OP = [
    ("padic.validate_assumptions.self_s", "padic.validate_assumptions", "self_s"),
    ("padic.validate_assumptions.calls", "padic.validate_assumptions", "calls"),
    ("padic.poly_discriminant.s", "padic.poly_discriminant", "s"),
    ("padic.poly_discriminant.calls", "padic.poly_discriminant", "calls"),
    ("padic.difference_root_valuations.s", "padic.difference_root_valuations", "s"),
    ("padic.difference_root_valuations.calls", "padic.difference_root_valuations", "calls"),
    ("padic.irreducibility_certificate.s", "padic.irreducibility_certificate", "s"),
    ("padic.irreducibility_certificate.calls", "padic.irreducibility_certificate", "calls"),
    ("padic.conductor_exponent.s", "padic.conductor_exponent", "s"),
    ("padic.conductor_exponent.calls", "padic.conductor_exponent", "calls"),
    ("groups.character_table.cold_s", "groups.character_table.cold", "s"),
    ("groups.character_table.cold.calls", "groups.character_table.cold", "calls"),
    ("groups.character_table.warm_s", "groups.character_table.warm", "s"),
    ("groups.character_table.warm.calls", "groups.character_table.warm", "calls"),
    ("groups.conjugacy_classes.s", "groups.conjugacy_classes", "s"),
    ("groups.conjugacy_classes.calls", "groups.conjugacy_classes", "calls"),
    ("groups.identify_psi.self_s", "groups.identify_psi", "self_s"),
    ("groups.identify_psi.calls", "groups.identify_psi", "calls"),
    ("cyclotomic.ops.s", "cyclotomic.ops", "s"),
    ("cyclotomic.ops.calls", "cyclotomic.ops", "calls"),
    ("cyclotomic.embed.s", "cyclotomic.embed", "s"),
    ("cyclotomic.embed.calls", "cyclotomic.embed", "calls"),
    ("gf.build_field.s", "gf.build_field", "s"),
    ("gf.build_field.calls", "gf.build_field", "calls"),
    ("gf.frobenius_root_solve.s", "gf.frobenius_root_solve", "s"),
    ("gf.frobenius_root_solve.calls", "gf.frobenius_root_solve", "calls"),
    ("gf.frobenius_fixed_subfield.s", "gf.frobenius_fixed_subfield", "s"),
    ("gf.frobenius_fixed_subfield.calls", "gf.frobenius_fixed_subfield", "calls"),
    ("counting.count_curve.s", "counting.count_curve", "s"),
    ("counting.count_curve.calls", "counting.count_curve", "calls"),
    ("counting.count_twisted_fixed.self_s", "counting.count_twisted_fixed", "self_s"),
    ("counting.count_twisted_fixed.calls", "counting.count_twisted_fixed", "calls"),
    ("classify.classify.self_s", "classify.classify", "self_s"),
    ("classify.classify.calls", "classify.classify", "calls"),
    ("classify.verify_consistency.self_s", "classify.verify_consistency", "self_s"),
    ("classify.verify_consistency.calls", "classify.verify_consistency", "calls"),
    ("classify.to_json.s", "classify.to_json", "s"),
    ("classify.to_json.calls", "classify.to_json", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.import.calls", "cli.import", "calls"),
]
COUNTERS_PER_OP = ("padic.diff_degree", "counting.elements", "groups.order_cold")


def layer_metrics(dumps: list[dict], ops: int, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``ops`` operations took ``traced_s`` seconds under spans and
    ``untraced_s`` without.  A CLI child's dump carries ``process_ns``, its
    time from start to the import of galrep (see cli_child.py).
    """
    measured = span_totals(dumps, "measured")
    counters: Counter = Counter()
    for dump in dumps:
        counters.update(dump["counters"].get("measured", {}))

    def get(span, key):
        return measured.get(span, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for metric, span, key in PER_OP:
        out[metric] = (get(span, key) / ops, "count/op" if key == "calls" else "s/op")
    for name in COUNTERS_PER_OP:
        out[name] = (counters[name] / ops, "count/op")
    busy = get("counting.count_curve", "s") + get("counting.count_twisted_fixed", "s")
    out["counting.elements_per_busy_s"] = (counters["counting.elements"] / busy if busy else 0.0, "1/s")
    process_s = sum(dump.get("process_ns", 0) for dump in dumps) / 1e9
    out["cli.import_s"] = (get("cli.import", "s") / ops, "s/op")
    out["cli.process_s"] = (process_s / ops, "s/op")
    layers = layer_self(measured)
    layers["cli"] += process_s
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (layers[layer] / ops, "s/op")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def unaccounted(dumps: list[dict], traced_s: float) -> tuple[float, float]:
    """(seconds, allowance): the traced wall time that no layer's self time
    accounts for, and what the spans themselves cost.

    A galrep function that runs outside every span (a target lost in a
    refactor, or new work no target covers) shows here.  The allowance is
    the measured spans' count times the cost of one span: the bare and
    traced passes differ by more noise than the spans cost.
    """
    measured = span_totals(dumps, "measured")
    process_s = sum(dump.get("process_ns", 0) for dump in dumps) / 1e9
    count = sum(1 for dump in dumps for span in dump["spans"] if span[4] != SETUP)
    return traced_s - sum(layer_self(measured).values()) - process_s, count * span_cost_s()
