"""One worker interpreter for the in-process workloads (classify-batch, count-sweep).

Started by run.py from the root of the checkout:

    python3 bench/worker.py --workload W --seed N [--seconds S] [--trace 0|1] [--spans FILE] [--tiny]

It imports galrep from ./src, warms up and prints ``READY {...}``, with the
warm-up's time and speed (speed.py) unless it traces.  Without --seconds it
then exits: run.py times such workers for setup_s.  With --seconds it runs
the timed loop (workloads.timed_loop) for that long and prints
``RESULT {...}``: the bare and traced Outcomes, peak memory and, with
--trace 1, the spans of the traced pass.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("classify-batch", "count-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="span file written by a traced run")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    import galrep
    if src not in Path(galrep.__file__).resolve().parents:
        print(f"galrep was imported from {galrep.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    # a traced run records the warm-up too (as set-up spans), so that the
    # first character table per group in the process is the cold one; an
    # untraced one takes speed samples during it, as during the timed loop
    recorder = spans.Recorder() if args.trace and args.seconds is not None else None
    calibration = None if recorder else speed.Calibration()
    if recorder:
        recorder.install()
    start = time.perf_counter()
    if calibration:
        calibration.start_timer()
    started = time.perf_counter()
    warm_up_error = workload.warm_up()
    if calibration:
        calibration.stop_timer()
    ready = {"error": warm_up_error, "summary": workload.summary()}
    if recorder:
        recorder.uninstall()
    else:
        # the warm-up as measured, without the samples, and the samples' time
        ready.update(warm_up_s=time.perf_counter() - started - calibration.paused,
                     paused_s=started - start + calibration.paused, speed=statistics.mean(calibration.samples))
    print("READY " + json.dumps(ready), flush=True)
    if args.seconds is None:
        return 0

    def run_op(index: int, number: int, traced: bool) -> workloads.Outcome:
        op = workload.round(index)[number]
        if not traced:
            return workloads.run_op(workload, op, calibration=calibration)
        recorder.install()
        try:
            return workloads.run_op(workload, op, recorder, f"r{index}.{number}")
        finally:
            recorder.uninstall()

    if calibration:
        calibration.start_timer()
    bare, traced = workloads.timed_loop(run_op, len(workload.round(0)), args.seconds, bool(recorder))
    if calibration:
        calibration.stop_timer()
    result = {"untraced": bare.to_json(), "traced": traced.to_json(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder:
        dump = recorder.dump()
        spans.write_spans(args.spans, [dump])
        result["dumps"] = [dump]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
