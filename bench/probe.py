"""Host speed samples taken while a round is timed.

The 2-vCPU VM this benchmark was tuned on runs the same code up to 1.5x
slower in phases that last from seconds to minutes (README, Steadiness), and
a run of one workload lasts 15-40 s. A round's wall time therefore moves with
the phase it happens to fall in. The probe measures that phase: an interval
timer interrupts the timed round every INTERVAL_S of wall time, and the
handler runs `reference_work`, a fixed mix of pure-Python, small-array numpy
and scipy.special work that imports nothing from treeheat. The time of the
samples is taken out of the round, and the round is scaled by
REFERENCE_S / (mean sample time): its wall time at the reference speed.

The handler runs in the main thread between bytecodes, so it lands inside
long operations too (the program spends its time in Python-level loops and
callbacks). It calls no scipy routine that is not re-entrant.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time

import numpy as np
from scipy.special import ive

INTERVAL_S = 0.2
# median time of one reference_work() call on the tuning machine (2 vCPU
# "Intel Xeon Processor" VM, Python 3, one BLAS thread); only a scale
REFERENCE_S = 0.015

_X = np.linspace(0.0, 50.0, 512)
_Y = np.linspace(0.0, 1.0, 64)


def reference_work() -> float:
    """A fixed piece of work, about a third each of interpreted arithmetic
    and heap operations, small numpy arrays, and Bessel functions."""
    acc = 0.0
    for i in range(24000):
        acc += math.exp(-1e-4 * i) * (i % 7)
    heap = list(range(1000, 0, -1))
    heapq.heapify(heap)
    while heap:
        acc += heapq.heappop(heap)
    for n in range(1200):
        acc += float(np.dot(np.exp(-n * _Y), _Y))
    for n in range(16):
        acc += float(np.sum(ive(n % 3, _X) * np.exp(-_X)))
    return acc


class SpeedProbe:
    """Reference samples taken by SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._active = False
        reference_work()  # first call pays for imports and caches

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        self._active = False  # a tick that fires during the sample is dropped
        t = time.perf_counter()
        # whatever floating-point error state the interrupted code set, the
        # sample raises nothing into it
        with np.errstate(all="ignore"):
            reference_work()
        self.samples.append(time.perf_counter() - t)
        self._active = True

    def start(self) -> None:
        self.samples = []
        self._active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False  # the handler stays, so a late tick does nothing
        self.spent_s = math.fsum(self.samples)  # inside the round
        if not self.samples:  # a round shorter than INTERVAL_S
            t = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t)

    def scale(self) -> float:
        """REFERENCE_S over the mean sample: below 1 when the host was slow."""
        return REFERENCE_S / statistics.fmean(self.samples)
