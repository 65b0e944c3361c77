"""Fast smoke check of the benchmark itself (about 15 seconds).

Run from the root of a checkout:

    python3 bench/smoke.py

1. Runs every workload with tiny inputs, untraced and traced, and checks
   that each run is correct and emits exactly the metrics BENCHMARK.json
   lists, each with its unit, and prints the per-workload metric names.
2. Traces tiny classify-batch operations that also idle outside every span,
   and checks that the trace check calls that run incorrect.
3. Runs each workload once more against a galrep whose answers were altered
   on purpose, and checks that the altered outputs are counted as failed.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PRINTED = {  # names that each untraced run prints with a unit
    "classify-batch": ("classify_per_s", "classify_ms_p50", "classify_ms_tail"),
    "count-sweep": ("count_elements_per_s", "count_sweep_ms_p50", "count_sweep_ms_tail"),
    "cli-oneshot": ("cli_per_s", "cli_s_p50", "cli_s_tail"),
}


def alter_galrep(galrep) -> None:
    """Make galrep give wrong answers: conductor + 1, curve total + 1, twisted trace + 1."""
    # galrep.classify is the function, so the modules are looked up by name
    classify_module, counting, cli = (importlib.import_module(f"galrep.{m}") for m in ("classify", "counting", "cli"))
    to_json_dict = classify_module.ClassificationReport.to_json_dict

    def altered_report(self):
        out = to_json_dict(self)
        if "exponent" in out["conductor"]:
            out["conductor"]["exponent"] += 1
        return out

    classify_module.ClassificationReport.to_json_dict = altered_report
    count_curve = counting.count_curve
    count_twisted_fixed = counting.count_twisted_fixed

    def altered_curve(*args, **kwargs):
        result = count_curve(*args, **kwargs)
        return dataclasses.replace(result, total=result.total + 1)

    def altered_twisted(*args, **kwargs):
        result = count_twisted_fixed(*args, **kwargs)
        return dataclasses.replace(result, trace_sigma_frob=result.trace_sigma_frob + 1)

    for module in (galrep, counting, cli):
        module.count_curve = altered_curve
    for module in (galrep, counting, cli, classify_module):
        module.count_twisted_fixed = altered_twisted


def check_emitted(workload: str, trace: int, spec: dict) -> list[str]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"not correct: {lines[-1][:300]}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != listed:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(listed.items()))}")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    printed = ("failed_ratio",) + (tuple(listed) if trace else ("setup_s", "peak_rss_mb") + PRINTED[workload])
    for name in printed:
        if not re.search(rf"^metric {re.escape(name)} = \S+ \S+", proc.stdout, re.M):
            problems.append(f"{name} is not printed with a unit")
    return problems


def check_trace_check() -> list[str]:
    """Time that no span covers makes a traced classify-batch run incorrect."""
    import run
    import spans
    import workloads

    bench = workloads.ClassifyBatch(7, tiny=True)
    call = bench.call

    def call_and_idle(op):
        time.sleep(0.002)  # stands for galrep work outside every span
        return call(op)

    bench.call = call_and_idle
    recorder = spans.Recorder()
    outcome = workloads.Outcome()
    recorder.install()
    try:
        for number, op in enumerate(bench.round(0)):
            outcome.merge(workloads.run_op(bench, op, recorder, f"r0.{number}"))
    finally:
        recorder.uninstall()
    result = {"dumps": [recorder.dump()], "traced": outcome.to_json(), "untraced": outcome.to_json()}
    with contextlib.redirect_stdout(io.StringIO()):
        _, failure = run.per_layer("classify-batch", result)
    return [] if failure else ["2 ms per operation outside every span passed the trace check"]


def check_altered(workload: str) -> list[str]:
    """One round against the altered galrep (already imported and altered)."""
    import workloads

    if workload == "cli-oneshot":
        env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
        bench = workloads.CliOneshot(7, tiny=True, command=[sys.executable, __file__, "--altered-child"], env=env)
    else:
        bench = workloads.WORKLOADS[workload](7, tiny=True)
    outcome = workloads.Outcome()
    for op in bench.round(0):
        outcome.merge(workloads.run_op(bench, op))
    if outcome.failed == 0:
        return [f"no altered output was counted as failed ({outcome.attempted} attempted)"]
    return []


def main() -> int:
    if sys.argv[1:2] == ["--altered-child"]:
        import galrep

        alter_galrep(galrep)
        return importlib.import_module("galrep.cli").main(sys.argv[2:])

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(Path.cwd() / "src"))
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}" + "".join(f"\n  {p}" for p in problems), flush=True)

    for workload in PRINTED:
        for trace in (0, 1):
            report(f"{workload} trace {trace}", check_emitted(workload, trace, spec))
    report("trace check fails on uncovered time", check_trace_check())
    alter_galrep(importlib.import_module("galrep"))
    for workload in PRINTED:
        report(f"{workload} altered output", check_altered(workload))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
