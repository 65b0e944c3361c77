"""Machine speed, measured with a fixed piece of pure-Python work.

On the small shared machines this benchmark runs on, the speed of all CPU
work changes: it flips between a fast and a slow state, about 1.7 times
apart, that last from milliseconds to seconds, and the share of slow time
moves by a fifth or more from one run to the next.  galrep's own work moves
with it: over minutes, the ratio of a classify call to this calibration stays
within a few percent while both move by 20%.  So every run takes calibration
samples, on the CPU its operations run on, and reports each operation's time
scaled to a fixed reference speed: multiplied by CAL_REF_S over the mean
calibration time around the operation.  The in-process workers sample from a
timer signal, also in the middle of long operations, and take the time of
the samples out of the operation's latency; run.py samples before and after
each CLI request.  The times as measured are printed alongside.

Of a set-up, only the warm-up is scaled, by samples the worker takes during
it.  Starting an interpreter and importing modules does not slow down in
step with this work, and process start-up also takes extra delays of up to
50 ms, for seconds at a time, that no sample around it foresees; so that
part is left as measured, and set-ups that are mostly start-up (count-sweep,
cli-oneshot) stay the noisiest figures.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

CAL_REF_S = 0.004  # calibration time at the reference speed, about the median on a 2-core Xeon virtual machine
EVERY_S = 0.1  # seconds between two samples of the timer


def _work() -> None:
    # the two kinds of pure-Python work galrep does: rational arithmetic on
    # growing integers, and small-integer tuple arithmetic modulo p
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = x * Fraction(i + 1, i) + Fraction(1, i)
    t = (1, 2, 3, 4, 5, 6, 7)
    for _ in range(1200):
        t = tuple((a * 3 + b) % 7 for a, b in zip(t, t[1:] + t[:1]))


class Calibration:
    """Speed samples, taken on request or, once the timer runs, every EVERY_S
    from a timer signal in the middle of whatever the process is doing."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # seconds the timer's samples took away from other work

    def measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the caller's heap is not machine speed
        try:
            start = time.perf_counter()
            _work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def start_timer(self) -> None:
        """Take a sample now and then one every EVERY_S."""
        self.measure()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.measure()
        self.paused += time.perf_counter() - start
