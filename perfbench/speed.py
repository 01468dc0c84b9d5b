"""Calibration of the machine's speed.

The machine's speed drifts by up to 1.7x within seconds (other virtual
machines share its cores), so raw times of identical work spread by 25-30%
between runs.  While a ``Speed`` is active, an interval timer runs a fixed
pure-Python kernel every CALIBRATION_INTERVAL_S, also in the middle of a
library call, and each measured interval is scaled to the speed at which
the kernel takes CALIBRATION_REF_S: its time on an idle core of a 2-vCPU
Xeon (Sapphire Rapids) KVM guest.  Wall time is scaled by the kernel's wall
time, CPU time by the kernel's CPU time.  Kernel runs are subtracted from
the interval they interrupt.  Standard library only, so that it can start
before the imports whose time it scales.

``reference.json`` ("scaling_check") records that scaling keeps the size of
a real change: a stage made to do its work twice reads twice as long.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

CALIBRATION_REF_S = 3.6e-3
CALIBRATION_INTERVAL_S = 0.1


def calibration_kernel():
    table: dict = {}
    acc = 0.0
    for i in range(4000):
        key = (i % 97, (i * 7) % 101, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) ** 0.5
    return len(sorted(table)), acc


def kernel_seconds() -> tuple:
    """Wall and CPU seconds of one run of the kernel, with no garbage
    collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        calibration_kernel()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Kernel samples from a SIGALRM interval timer, active inside ``with``.

    ``listener``, if set, is called with the seconds of each sample (the
    tracer uses it to keep kernel time out of self times)."""

    def __init__(self):
        self.ends: list = []  # perf_counter() when each sample finished
        self.seconds: list = []  # wall seconds of each sample
        self.cpu_seconds: list = []
        self.listener = None
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *signal_args):
        if self._busy:
            return
        self._busy = True
        try:
            dt, cpu = kernel_seconds()
            self.ends.append(time.perf_counter())
            self.seconds.append(dt)
            self.cpu_seconds.append(cpu)
            if self.listener is not None:
                self.listener(dt)
        finally:
            self._busy = False

    def over(self, t0, t1):
        """Kernel wall and CPU seconds run inside [t0, t1], and the wall and
        CPU speed factors for it.  A factor is the mean of CALIBRATION_REF_S
        / sample over the samples inside, or from the last sample before t0
        if none fell inside."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        a, b = (lo, hi) if hi > lo else (max(lo - 1, 0), lo)

        def factor(samples):
            return statistics.fmean(CALIBRATION_REF_S / dt for dt in samples[a:b])

        return (sum(self.seconds[lo:hi]), sum(self.cpu_seconds[lo:hi]),
                factor(self.seconds), factor(self.cpu_seconds))
