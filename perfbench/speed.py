"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core swings by up to 2x from second to
second (another tenant on the sibling hardware thread, for example), and
the share of slow seconds drifts from minute to minute.  That moves every
wall time by the same factor, whatever the program does.

`calibrate` times a short fixed loop of small-denominator `Fraction`
arithmetic, the same kind of work the library does, using nothing of the
library.  A pass runs it before its first system and after every system,
and a `Sampler` runs it every `PERIOD_S` of CPU time while a system runs,
from a SIGPROF handler whose own time is taken out of the system's.  The
system's time is then scaled by

    REF_CAL_S / (mean of the calibrations before, during and after it)

which gives the time it would have taken on a machine where the loop takes
exactly `REF_CAL_S`.  The end-to-end metrics are reported at that
reference speed; the raw wall times are printed beside them and kept in
the run record.  A change to the library moves the scaled times as it
moves the wall times, because the loop does not run library code.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Iterations of one calibration: 0.5 to 1 ms.
CAL_ITERATIONS = 100
# The reference speed, a round figure inside the range (0.5 to 1 ms) one
# calibration took on the 2-vCPU x86-64 host, Python 3.11, the benchmark
# was written on.
REF_CAL_S = 0.0007
# CPU seconds between two calibrations inside a system: about 3% of its time.
PERIOD_S = 0.025


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds for a fixed loop of small-denominator Fraction arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i % 13, 1 + i % 11) * Fraction(1 + i % 7, 1 + i % 5)
        if acc > 100:
            acc -= 100
    return time.perf_counter() - t0


class Sampler:
    """Calibrations taken every PERIOD_S of CPU time between start and stop."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent in the handler
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
