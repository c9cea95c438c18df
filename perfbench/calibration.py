"""Machine speed, from a fixed pure-Python kernel timed throughout a run.

The virtual machines this benchmark runs on change speed by a third and
more, over seconds and over minutes, for reasons outside the process: the
rate of one fixed loop, taken in 5-second windows, ranged over 37% of its
median in 90 seconds, and one set of runs came out a third slower than a
set ten minutes earlier.  Taking each op's fastest pass removes bursts,
but not a slow minute.

So while an untraced run measures, a timer signal times the kernel below,
which never calls tdparse, every SAMPLE_EVERY seconds, inside ops as well
as between them.  ``net`` takes the kernel's time back out of an op's time.
``slowness`` compares the fastest kernel samples near an op with
REFERENCE_SECONDS, the kernel's time on the reference machine, and run.py
divides each item's fastest time by it.  The reported times are then those of the
reference machine, and a change to tdparse moves them as it moves the raw
times.  The raw figures are printed on the info lines above the result.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import heapq
import math
import signal
from time import perf_counter

# The kernel's fastest time on the reference machine: a 2-vCPU Intel Xeon
# virtual machine at 2.1 GHz with CPython 3.11.7, on a quiet minute.
REFERENCE_SECONDS = 0.0025
SAMPLE_EVERY = 0.2
WINDOW = 0.5


def kernel() -> float:
    """Tuple keys, dict updates, a bounded heap and float maths, as in a beam search."""
    heap: list = []
    counts: dict = {}
    total = 0.0
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0.0) + 0.5
        heapq.heappush(heap, (-(i * 7919 % 10007), i, key))
        if len(heap) > 50:
            heapq.heappop(heap)
        total += math.log1p(counts[key])
    return total


class Calibration:
    """Kernel samples of one run, as (start, seconds) in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        """Time the kernel once, with the collector off so the heap's size
        cannot reach into its time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            seconds = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.times.append(seconds)

    @contextlib.contextmanager
    def sampling(self):
        """Sample at the start, every SAMPLE_EVERY seconds from a timer
        signal, and at the end."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def net(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start`` less the kernel samples begun inside them."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        return seconds - sum(self.times[lo:hi])

    def slowness(self, start: float, end: float) -> float:
        """How much slower than the reference machine this one ran over
        [start, end].

        The interval, widened by WINDOW on each side, is cut into stretches
        of about 2 * WINDOW: one for an op shorter than WINDOW, one per
        second of a training.  Each stretch's fastest kernel sample (or,
        in a stretch without one, its nearest samples) is taken, and their
        mean is divided by REFERENCE_SECONDS.
        """
        lo_t, hi_t = start - WINDOW, end + WINDOW
        stretches = max(1, round((hi_t - lo_t) / (2 * WINDOW)))
        step = (hi_t - lo_t) / stretches
        fastest = []
        for k in range(stretches):
            lo = bisect.bisect_left(self.starts, lo_t + k * step)
            hi = bisect.bisect_right(self.starts, lo_t + (k + 1) * step)
            fastest.append(min(self.times[lo:hi] or self.times[max(lo - 1, 0):lo + 1]))
        return math.fsum(fastest) / len(fastest) / REFERENCE_SECONDS
