"""galrep benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives galrep only through its public API and its CLI, imported from
./src.  One closed-loop client sends one operation at a time, with no
threads, and at most one galrep child process runs at a time.  Each
operation's output is checked (see workloads.py); the last line of stdout is
a JSON object with "correct", "attempted", "failed" and "metrics".

Workloads (the seed picks the inputs and their order, nothing else):

* classify-batch: one warm worker interpreter calls classify(...) and
  .to_json() on monic polynomials that are Eisenstein after a random integer
  shift, p in {3, 5, 7, 11, 13}, n in {1, 2}; about half are refused at
  p >= 7 (gcd condition), so both paths run.
* count-sweep: one warm worker calls count_curve on (3,8), (5,5), (7,4),
  (13,3) and count_twisted_fixed on (3,7), (7,3), (5,3), (13,1).
* cli-oneshot: every request is a fresh ``python -m galrep`` child: the
  ROADMAP baseline CLI cases, classify --n 3 and --format text at p = 7,
  chartab of the full group at p = 17 and 19, count --mode twisted at
  (7, 3), one refused input (exit 3) and one invalid input (exit 2).

Why each exists is in workloads.WHY and printed with every run.

End-to-end metrics (--trace 0), under one name on every workload:

* setup_s: median over SETUP_RUNS fresh interpreters of the time until the
  timed loop could start: interpreter start, ``import galrep`` and the
  warm-up (one classify per (p, parity of n), or one call per counter); on
  cli-oneshot, a fresh interpreter running ``import galrep``.  Half of them
  run before the timed loop and half after it.  The warm-up is scaled to
  the reference speed; interpreter start and imports are not (speed.py).
* peak_rss_mb: largest resident set of any child (worker or CLI request).
* throughput_per_s: operations per second of time spent in galrep, where an
  operation is a classify call (printed as classify_per_s), an enumerated
  field element (count_elements_per_s) or a CLI request (cli_per_s).
* latency_ms_p50 and latency_ms_tail: median and the highest percentile with
  at least ten samples beyond it (the maximum when there are fewer than 11
  samples), per classify call, sweep of the eight counter calls or CLI
  request (printed as classify_ms_*, count_sweep_ms_*, cli_s_*).

Every other time is scaled to a reference CPU speed by speed samples taken
around it (speed.py), because the speed of small shared machines moves by a fifth
from run to run; the printed lines give the times as measured too.
failed_ratio is printed with its counts; in the JSON it is carried by
"failed" and "attempted".

With --trace 1 each operation runs twice, bare and then under spans
(spans.py), and the JSON holds the per-layer metrics.  Spans are written to
.bench_out/.  On classify-batch the layer self times must account for the
traced wall time to within what the spans cost, or the run is incorrect.

The in-process workloads run in worker.py: run.py times fresh workers
through their warm-up, before and after one more worker that runs the timed
loop and reports its operations at the end.  cli-oneshot runs its loop here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 9  # fresh workers timed to the end of their warm-up, or interpreters through `import galrep`
DEADLINE_S = 170  # the whole run, children included

# workload -> printed names of throughput_per_s, latency_ms_p50 and latency_ms_tail,
# and the unit the latencies are printed in
PRINTED = {
    "classify-batch": ("classify_per_s", "classify_ms_p50", "classify_ms_tail", "ms"),
    "count-sweep": ("count_elements_per_s", "count_sweep_ms_p50", "count_sweep_ms_tail", "ms"),
    "cli-oneshot": ("cli_per_s", "cli_s_p50", "cli_s_tail", "s"),
}


def _timeout(signum, frame):
    raise TimeoutError(f"the run took longer than {DEADLINE_S} s")


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    Nearest-rank; with ten samples or fewer no percentile qualifies and the
    maximum is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    pct = 100 * (n - 10) // n
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def _run_child(command: list[str], env: dict) -> tuple[float, dict]:
    """Run a child to its end.

    Returns the seconds until it printed its READY line (or, if it prints
    none, until it closed its output) and the JSON of its READY and RESULT
    lines.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    found = {}
    try:
        for line in proc.stdout:
            key, _, payload = line.partition(" ")
            if key in ("READY", "RESULT"):
                found[key] = json.loads(payload)
            if key == "READY":
                seconds = time.perf_counter() - start
        if "READY" not in found:
            seconds = time.perf_counter() - start
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:3])} exited with code {proc.returncode}")
    return seconds, found


def time_setups(command: list[str], env: dict, count: int) -> tuple[list[float], dict | None]:
    """Seconds of ``count`` fresh set-ups, one after another, and the READY
    object of the last.

    A worker's warm-up is scaled to the reference speed by the speed samples
    it took during it (speed.py); interpreter start and imports are not.
    """
    setups = []
    for _ in range(count):
        seconds, found = _run_child(command, env)
        ready = found.get("READY")
        if ready:
            warm_up = ready["warm_up_s"]
            seconds += warm_up * speed.CAL_REF_S / ready["speed"] - warm_up - ready["paused_s"]
        setups.append(seconds)
    return setups, ready


def run_in_process(args, env: dict, span_file: Path) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    setups, ready = time_setups(command, env, SETUP_RUNS - SETUP_RUNS // 2)
    _, found = _run_child(command + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--spans", str(span_file)], env)
    setups += time_setups(command, env, SETUP_RUNS // 2)[0]
    result = found["RESULT"]
    result.update(summary=ready["summary"], setups=setups,
                  errors=[f"warm-up: {ready['error']}"] if ready["error"] else [])
    return result


def run_cli(args, env: dict, span_file: Path) -> dict:
    importing = [sys.executable, "-c", "import galrep"]
    setups, _ = time_setups(importing, env, SETUP_RUNS - SETUP_RUNS // 2)
    workload = workloads.CliOneshot(args.seed, args.tiny, env=env)
    trace_dir = span_file.parent / "cli-spans"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)
    calibration = speed.Calibration()

    def run_op(index: int, number: int, traced: bool) -> workloads.Outcome:
        workload.trace_dir = trace_dir if traced else None
        op = workload.round(index)[number]
        if traced:
            return workloads.run_op(workload, op)
        # the request's speed: the mean of a sample just before and one just after it
        calibration.measure()
        outcome = workloads.run_op(workload, op)
        calibration.measure()
        outcome.speeds = [statistics.mean(calibration.samples[-2:])]
        return outcome

    untraced, traced = workloads.timed_loop(run_op, len(workload.round(0)), args.seconds, bool(args.trace))
    setups += time_setups(importing, env, SETUP_RUNS // 2)[0]
    result = {"summary": workload.summary(), "setups": setups, "errors": [], "untraced": untraced.to_json(),
              "traced": traced.to_json(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    if args.trace:
        spans.write_spans(span_file, workload.dumps)
        result["dumps"] = workload.dumps
    return result


def end_to_end(workload: str, result: dict) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as name -> (value, unit); prints each one.

    Each operation's time is scaled to the reference speed by the speed
    samples taken around it (speed.py).  The printed lines give the times as
    measured alongside.
    """
    outcome = result["untraced"]
    measured = outcome["latencies"]
    scaled = [t * speed.CAL_REF_S / s for t, s in zip(measured, outcome["speeds"])]
    work = outcome["elements"] if workload == "count-sweep" else outcome["attempted"]
    throughput_name, p50_name, tail_name, shown_unit = PRINTED[workload]
    shown = 1000 if shown_unit == "ms" else 1
    figures = []
    for latencies in (scaled, measured):
        if workload == "count-sweep":
            # the eight counter calls of a round are one sweep, and the
            # latency is that of a sweep: every round holds the same calls
            size = outcome["attempted"] // outcome["rounds"]
            latencies = [sum(latencies[i:i + size]) for i in range(0, len(latencies), size)]
        figures.append((work / sum(latencies), statistics.median(latencies), *tail(latencies)))
    (throughput, p50, pct, tail_value), (raw_throughput, raw_p50, _, raw_tail) = figures
    setups = result["setups"]
    n = len(measured) if workload != "count-sweep" else outcome["rounds"]
    setup = statistics.median(setups)
    print(f"metric setup_s = {setup:.6g} s (median of {len(setups)}; fastest {min(setups):.6g})")
    print(f"metric peak_rss_mb = {result['peak_rss_mb']:.6g} MB")
    print(f"metric {throughput_name} = {throughput:.6g} 1/s ({work} in {work / throughput:.3f} s; "
          f"{raw_throughput:.6g} as measured)")
    print(f"metric {p50_name} = {p50 * shown:.6g} {shown_unit} ({n} samples; {raw_p50 * shown:.6g} as measured)")
    print(f"metric {tail_name} = {tail_value * shown:.6g} {shown_unit} (p{pct} of {n} samples; "
          f"{raw_tail * shown:.6g} as measured)")
    return {"setup_s": (setup, "s"), "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "throughput_per_s": (throughput, "1/s"), "latency_ms_p50": (p50 * 1000, "ms"),
            "latency_ms_tail": (tail_value * 1000, "ms")}


def per_layer(workload: str, result: dict) -> tuple[dict[str, tuple[float, str]], str | None]:
    """Every per-layer metric as name -> (value, unit), and the trace check's
    failure on classify-batch; prints the layer table, the check and each metric."""
    dumps = result["dumps"]
    traced = result["traced"]
    ops = traced["attempted"]
    traced_s = sum(traced["latencies"])
    layers = spans.layer_metrics(dumps, ops, traced_s, sum(result["untraced"]["latencies"]))
    print(f"layer self time per op, traced pass of {ops} ops, {traced_s / ops:.6f} s/op:")
    for layer in spans.LAYERS:
        seconds = layers[f"layer.{layer}.self_s"][0]
        print(f"  {layer:<11} {seconds:12.6f} s/op {100 * seconds * ops / traced_s:6.1f}%")
    # the check holds on classify-batch; elsewhere the figure also holds the
    # harness's calls of tiny operations or the CLI children's exit
    left, allowance = spans.unaccounted(dumps, traced_s)
    verdict = ("ok" if left <= allowance else "NOT WITHIN IT") if workload == "classify-batch" else "not checked"
    print(f"trace check: layer self times leave {left:.6f} s of the {traced_s:.3f} s traced wall unaccounted; "
          f"the spans cost about {allowance:.6f} s: {verdict}")
    setup = spans.span_totals(dumps, spans.SETUP)
    for name, entry in sorted(setup.items(), key=lambda item: -item[1]["s"])[:5]:
        print(f"set-up span {name}: {entry['s']:.6f} s in {entry['calls']} calls")
    for target in sorted({t for dump in dumps for t in dump["missing"]}):
        print(f"trace: target {target} is absent; its spans read 0")
    for name, (value, unit) in layers.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failure = None
    if workload == "classify-batch" and left > allowance:
        failure = (f"trace check: {left:.6f} s of the traced wall time is outside every layer's self time, "
                   f"more than the spans cost ({allowance:.6f} s)")
    return layers, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "galrep" / "__init__.py").is_file():
        print(f"error: no galrep sources under {src}; run from the root of a galrep checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))  # this checkout's galrep and no other
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"

    try:
        # one CPU for this process and its children, so that the speed samples
        # are taken on the CPU the work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        _run_child([sys.executable, "-c", "import galrep"], env)  # writes bytecode; not timed
        if args.workload == "cli-oneshot":
            result = run_cli(args, env, span_file)
        else:
            result = run_in_process(args, env, span_file)
    finally:
        signal.alarm(0)

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    for line in result["summary"]:
        print(line)
    passes = {"bare": result["untraced"]} | ({"traced": result["traced"]} if args.trace else {})
    attempted = sum(p["attempted"] for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    errors = result["errors"] + [e for p in passes.values() for e in p["errors"]]
    for label, p in passes.items():
        for kind, (ops, accepted, seconds) in sorted(p["by_kind"].items()):
            print(f"ran {kind} ({label}): {ops} ops, {accepted} accepted, {ops - accepted} refused or invalid, "
                  f"mean {seconds / ops:.4f} s as measured")
    if args.trace:
        metrics, failure = per_layer(args.workload, result)
        errors += [failure] if failure else []
    else:
        metrics = end_to_end(args.workload, result)
    for error in errors:
        print(f"FAILED {error}")
    print(f"metric failed_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
