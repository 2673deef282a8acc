"""Machine-speed meter: a fixed reference kernel sampled on a timer.

On a shared host the speed of a core changes by up to about 1.9x, in states
that last from seconds to more than a minute, and neither steal time nor
process CPU time shows it.  A median inside one run cannot remove a state
that lasts the whole run.  So while the timed part of a run is going, a
real-time timer interrupts the workload every ``PERIOD_S`` and runs
``kernel`` once: a fixed mix of interpreter work, numpy sorting and scipy
filtering, the kinds of work quakebox does.  The kernel's own time is kept
out of the workload's timings (``SpeedMeter.clock``), and each timing is
divided by the machine's slowdown over the same interval: the median kernel
time there over ``REFERENCE_MS``.  A timing thus reads as it would on a core
that runs the kernel in ``REFERENCE_MS``.  The kernel is frozen here, so a
change to quakebox moves the workload's time and not the kernel's.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy import signal as sps

# About the lowest median kernel time of a benchmark run seen on a 2-vCPU
# x86_64 VM (Intel Xeon, 2.0 GHz nominal) with Python 3.11, numpy 2.4 and
# scipy 1.17; only the scale of the reported timings depends on it.
REFERENCE_MS = 3.3
PERIOD_S = 0.05
MIN_SAMPLES = 5

_RNG = np.random.default_rng(20220502)
_SORT_INPUT = _RNG.standard_normal(4096)
_FILTER_INPUT = _RNG.standard_normal(1200)
_SOS = sps.butter(4, [5.0, 25.0], btype="band", fs=200.0, output="sos")


def kernel() -> float:
    """One unit of reference work; the result only keeps it from being skipped."""
    total, table = 0.0, {}
    for i in range(6000):
        total += i * 0.5
        table[i & 63] = total
    a = _SORT_INPUT
    for _ in range(4):
        a = np.sort(a * 1.0001)
    for _ in range(3):
        y = sps.sosfiltfilt(_SOS, _FILTER_INPUT)
        total += float(np.abs(np.fft.rfft(y)).sum())
    return total + float(a[0])


class SpeedMeter:
    """Runs ``kernel`` every ``period_s`` of real time while entered.

    ``clock()`` is ``time.perf_counter()`` minus the time spent in the
    kernel, so intervals measured with it hold the workload's time only.
    ``slowdown(t0, t1)`` is the median kernel time of the samples started in
    the real-time interval [t0, t1] over ``REFERENCE_MS``; with fewer than
    ``MIN_SAMPLES`` there, it uses the ``MIN_SAMPLES`` samples nearest to the
    interval's middle.
    """

    def __init__(self, period_s: float = PERIOD_S, work=kernel, reference_ms: float = REFERENCE_MS):
        self.period_s = period_s
        self.work = work
        self.reference_ms = reference_ms
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.kernel_ms: list[float] = []
        self.spent = 0.0  # seconds spent in the timer handler
        self._old = None
        work()  # first call fills lazy imports and caches; not a sample

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel_ms.append((t1 - t0) * 1000.0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedMeter":
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def slowdown(self, t0: float, t1: float) -> float:
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            chosen = [self.kernel_ms[i] for i in nearest[:MIN_SAMPLES]]
        else:
            chosen = self.kernel_ms[lo:hi]
        return statistics.median(chosen) / self.reference_ms
