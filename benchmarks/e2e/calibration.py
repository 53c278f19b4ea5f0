"""Host-speed calibration: a fixed kernel sampled five times a second.

The box this benchmark was written on is a 2-core VM on a shared host.
Its speed moves by 1.3-1.9x with its neighbours' load, within seconds and
for minutes: no statistic inside a run removes that, and the guest sees
only a few percent of it as steal.  What does track it is a small fixed
kernel run every 200 ms *while the program runs*, from a timer signal.
(Sampling only between the timed operations would see the seconds before
and after a 4 s serving run and not the run: on 46 such runs that took
20 % of spread to 18 %, sampling inside them to 11 %.)

So every host-clock end-to-end metric is reported at reference speed.
Each timed operation is scaled by the samples taken in and next to it::

    seconds x (REFERENCE_MS / median(samples inside it, the NEAR before, the NEAR after)) ** e

and the metric is the median of the scaled operations.  ``e`` is the
workload's ``speed_exponent``: 1 for the engine, 1.3 for the
interpreter-bound workloads, which contention slows by more than it slows
this kernel (README, "Reference speed").  The value as
timed is kept beside the scaled one in the run's detail record, per-layer
times stay as timed, and ``host.calib_ms`` is the run's median kernel time.

The harness times everything on :func:`clock`, which stands still while a
sample is taken, so a sample costs the operation it lands in nothing; only
what the program times for itself on the system clock (the solver's phase
times) includes them, 3 % on average.

The kernel is numpy work of the three kinds the workloads mix: matmuls
that stay in the cache, a conv-shaped matmul over an im2col-sized operand
that spills the L2 (engine at batch >= 8), and a loop of small array
calls, which is interpreter and dispatch time (solver, simulator).  Every
output is preallocated, and each sample runs the kernel twice and times
the second: the first refills the caches the program emptied, so that the
program's footprint does not move its own yardstick.  Pure-Python object
churn was tried as a part and as a kernel of its own for the simulator
workloads and tracked them no better (11.6 % left against 11.3 %).
It lives here, outside the program, so no change under ``src/`` moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: the kernel's time on the quiet reference box; fixes the unit only
REFERENCE_MS = 3.0
#: one sample per this much wall time
PERIOD_S = 0.2
#: samples on each side of an operation that set its speed with those inside
NEAR = 5

_SQUARE = np.full((256, 256), 0.5, dtype=np.float32)
_SQUARED = np.empty_like(_SQUARE)
_PATCHES = np.ones((4096, 288), dtype=np.float32)  # 4.7 MB: spills the L2
_FILTERS = np.ones((288, 64), dtype=np.float32)
_CONVOLVED = np.empty((4096, 64), dtype=np.float32)
_SERIES = np.arange(200, dtype=np.float64)

#: seconds spent taking samples so far
_sampling_s = 0.0


def clock() -> float:
    """``perf_counter`` that stands still while a calibration sample is taken."""
    return time.perf_counter() - _sampling_s


def kernel() -> None:
    """About 3 ms of cached matmul, conv-shaped matmul and small array calls."""
    for _ in range(3):
        np.matmul(_SQUARE, _SQUARE, out=_SQUARED)
    np.matmul(_PATCHES, _FILTERS, out=_CONVOLVED)
    for _ in range(200):
        sums = np.cumsum(_SERIES)
        sums[sums > 3.0]


class Calibrator:
    """Samples :func:`kernel` every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        #: when each sample was taken (on :func:`clock`) and the kernel's time
        self.times: list[float] = []
        self.samples_ms: list[float] = []
        self._sampling = False

    def start(self) -> None:
        kernel()  # first call pays for lazy BLAS set-up
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, *_signal) -> None:
        """Take one sample; the timer's handler, run between two bytecodes."""
        global _sampling_s
        if self._sampling:  # a timer tick during a slow sample
            return
        self._sampling = True
        entered = time.perf_counter()
        kernel()
        start = time.perf_counter()
        kernel()
        self.samples_ms.append(1e3 * (time.perf_counter() - start))
        self.times.append(entered - _sampling_s)
        _sampling_s += time.perf_counter() - entered
        self._sampling = False

    def at_reference(self, start: float, end: float) -> float:
        """The reference kernel time over the kernel's time around ``[start,
        end]``: a duration timed there, times this to the workload's
        ``speed_exponent``, is one at reference speed."""
        return REFERENCE_MS / statistics.median(near(self.times, self.samples_ms, start, end))

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def drift(self) -> float:
        """Relative change of the kernel time from the first to the last quarter."""
        quarter = max(1, len(self.samples_ms) // 4)
        first = statistics.median(self.samples_ms[:quarter])
        last = statistics.median(self.samples_ms[-quarter:])
        return abs(last - first) / first


def near(times: list[float], samples: list[float], start: float, end: float) -> list[float]:
    """The samples taken in ``[start, end]``, the ``NEAR`` before and the ``NEAR`` after."""
    before = bisect.bisect_left(times, start)
    after = bisect.bisect_right(times, end)
    return samples[max(0, before - NEAR) : after + NEAR]
