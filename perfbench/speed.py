"""Host-speed calibration.

On a shared host the same pure-Python work takes anywhere from 1.2 to 2.4 ms
from one second to the next (measured on a 2-vCPU sandbox), so raw wall
times of identical work move by 20-40% between runs.  While timed work runs,
`Sampler` interrupts it every INTERVAL_S seconds and times a fixed kernel.
A wall time is then scaled by REFERENCE_S / (mean kernel time during it),
after the sampler's own time is taken out.  The result is in reference
seconds: the time the work would take on a host where the kernel takes
REFERENCE_S.  The kernel uses no netmoments code and runs with the garbage
collector off, so a change to netmoments, including a bigger heap, does not
change it.  Raw wall times stay in the report.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.00025  # median kernel time on a 2.0 GHz sandbox vCPU
INTERVAL_S = 0.02


def kernel_seconds():
    """Seconds one run of the fixed kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 60):
            acc += Fraction(i, i + 1)
            table[(i, i % 7)] = acc
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Context manager that samples the kernel on SIGALRM.  samples holds
    (start, end, kernel seconds) on the monotonic clock."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        t0 = time.monotonic()
        k = kernel_seconds()
        self.samples.append((t0, time.monotonic(), k))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False


def reference_seconds(samples, intervals):
    """Wall seconds of each (start, end) interval, less the sampler's own
    time inside it, in reference seconds.  The kernel time is the mean of
    the samples inside the interval, or of the nearest sample on each side
    when none falls inside."""
    starts = [s[0] for s in samples]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, end)
        inside = [s for s in samples[lo:hi] if s[1] <= end]
        if inside:
            kernel = statistics.fmean(k for _, _, k in inside)
        else:
            before = samples[max(lo - 1, 0)][2]
            after = samples[min(hi, len(samples) - 1)][2]
            kernel = (before + after) / 2
        net = (end - start) - sum(t1 - t0 for t0, t1, _ in inside)
        out.append(net * REFERENCE_S / kernel)
    return out
