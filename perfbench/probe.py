"""The speed of the CPU a command runs on, sampled while it runs.

On a shared machine the same code runs up to 1.7 times faster or slower
from one second to the next, and the machine's CPUs change speed
independently of each other.  ``SpeedProbe`` samples the speed of the CPU
the command itself runs on: a timer interrupts the command every
``INTERVAL_S`` of wall time, and the handler times a fixed piece of
pure-Python work (``reference_work``: Fraction arithmetic, tuple keys and
dict updates, like qflag's own).  The parent divides a command's time by its
mean sample and multiplies by ``NOMINAL_S``, the reference work's time at
the machine's usual speed, so times read as seconds at that speed.

The probe's own time is left out of the command's time, and ``clock`` is a
clock that stops while the probe runs, for the tracer's spans.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
TRAILING_SAMPLES = 3  # samples after each command, so a short one has some
# the reference work's usual time on the 2-core machine of perfbench/README.md
NOMINAL_S = 0.0004


def reference_work():
    d = {}
    acc = Fraction(0)
    for i in range(1, 60):
        key = (i % 7, i % 5, i % 3)
        d[key] = d.get(key, 0) + 1
        acc += Fraction(i % 13 + 1, i % 17 + 1)
        acc -= Fraction(i % 5, 7)
    return acc, d


class SpeedProbe:
    def __init__(self):
        self.spent = 0.0  # seconds spent in samples since the probe was made
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None):
        # no collection inside a sample: its cost would follow qflag's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def clock(self):
        return time.perf_counter() - self.spent

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, trailing=TRAILING_SAMPLES):
        """End the timer, add the trailing samples and return the mean
        sample, in seconds.  The samples are evenly spaced in time, so their
        mean weighs each speed by how long it lasted; a median would pick
        one speed."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        for _ in range(trailing):
            self._tick()
        return sum(self.samples) / len(self.samples)
