"""The machine's speed, sampled while the benchmark times the package.

This benchmark runs on a few cores of a shared host. Other tenants' load
slows every piece of code on it alike, by up to a third, for seconds to
minutes at a time, and that moves a timing more than most changes to the
package would. The gauge times a fixed calibration unit, pure-Python and
numpy work that does not touch the package, at regular intervals while the
package runs, and scales each timing to the speed at which the unit takes
`REFERENCE_UNIT_S`. A change to the package moves the scaled time as much
as the raw one; a slow spell of the host moves both the unit and the
package, and mostly cancels out.

The samples are taken by a SIGALRM timer, so they fall inside long calls
into the package too (between two Python bytecodes, the only place where
Python runs a signal handler). The time spent in the handler is taken off
the timing before it is scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one sample every TICK_S seconds of a timed call, about 4% of its time
TICK_S = 0.025
# the calibration unit's time at the reference speed: about its median on
# a 2-vCPU VM on a 2.0-GHz Xeon, with Python 3.11 and numpy 2.4
REFERENCE_UNIT_S = 0.001
# samples taken just before and just after each timed call
EDGE_SAMPLES = 4


def calibration_unit() -> int:
    """A fixed mix of integer arithmetic, dict stores and small numpy calls."""
    acc = 0
    seen = {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 255] = i
    a = np.arange(512, dtype=np.int64)
    for _ in range(40):
        a = (a * 5 + 1) % 1009
        a = a[np.argsort(a, kind="stable")]
    return acc + len(seen) + int(a.sum())


class SpeedGauge:
    """Calibration samples and the time spent taking them."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_unit()
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - start

    def _edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def time_call(self, fn, *, ticks: bool = True):
        """Run fn(); return its result, its time and the factor that scales a
        time measured during the call to the reference speed.

        With `ticks` the timer samples the speed during the call; without it
        (for a call that waits on another process) only the edge samples count.
        """
        first = len(self.samples)
        self._edge()
        spent = self.spent
        if ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - (self.spent - spent)
            if ticks:
                signal.signal(signal.SIGALRM, previous)
        self._edge()
        return result, elapsed, REFERENCE_UNIT_S / statistics.fmean(self.samples[first:])
