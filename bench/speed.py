"""A speed probe: samples how fast the machine runs while a run measures.

On a small share of a shared host the same pass can take twice as long
from one minute to the next while CPU time tracks wall time, so the
slowdown is in the hardware the process shares, not in the program. The
probe runs a fixed reference kernel (a little interpreted Python, a few
small numpy operations and small matrix products, none of the package's
code) from a SIGALRM
handler every `PERIOD_S`. A sample's cost against `REF_NS` is how much
slower than the reference machine the process ran just then.

`factor(t0, t1)` turns that into a scale for the work done in [t0, t1],
and the benchmark reports times scaled by it: seconds on the reference
machine. Time spent in the handler is counted in `busy_ns` so that a
timed interval can leave it out. A probe that was never started scales
by 1.0 and costs nothing; traced runs use one, so per-layer times are raw.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# The reference kernel's cost on the machine the benchmark was defined on
# (2-vCPU Xeon at 2.1 GHz, Python 3, numpy with OpenBLAS, one thread),
# read at a quiet moment. Scaled times are seconds on that machine.
REF_NS = 900_000

_ROW = np.arange(64.0)
_SQUARE = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)


def reference_kernel() -> float:
    """Fixed work: interpreted integer and dict operations, small numpy ops
    and a few 96x96 matrix products."""
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 13
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 17] = counts.get(i % 17, 0) + i
    x = 0.0
    for _ in range(60):
        x += float((np.round(_ROW * 0.25) / 0.25).sum())
    for _ in range(6):
        x += float((_SQUARE @ _SQUARE)[0, 0])
    return acc + x + sum(counts.values())


class SpeedProbe:
    def __init__(self):
        self.starts: list[int] = []  # perf_counter_ns at each sample's start
        self.ends: list[int] = []
        self.busy_ns = 0  # total time spent sampling
        self.running = False

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        reference_kernel()
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        self.busy_ns += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.running = True
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def factor(self, t0: int, t1: int) -> float:
        """Time-weighted mean of REF_NS / cost over [t0, t1] (perf_counter_ns).

        Each sample stands for the time since the previous one ended, the
        last one also for the time after it, because a signal waits for a
        long C call to return. With no sample in the interval the nearest
        one stands for it; with no sample at all the scale is 1.0.
        """
        if not self.starts:
            return 1.0
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        if i == j:
            k = i
            if k == len(self.starts) or (k > 0 and t0 - self.ends[k - 1] < self.starts[k] - t1):
                k -= 1
            return self._speed(k)
        total = weight = 0.0
        prev = t0
        for k in range(i, j):
            w = max(self.starts[k] - prev, 1)
            total += w * self._speed(k)
            weight += w
            prev = self.ends[k]
        if t1 > prev:
            total += (t1 - prev) * self._speed(j - 1)
            weight += t1 - prev
        return total / weight

    def _speed(self, k: int) -> float:
        return REF_NS / (self.ends[k] - self.starts[k])

    def summary(self) -> dict:
        costs = [e - s for s, e in zip(self.starts, self.ends)]
        return {
            "period_s": PERIOD_S,
            "ref_us": REF_NS / 1e3,
            "samples": len(costs),
            "sample_us_quartiles": ([q / 1e3 for q in statistics.quantiles(costs, n=4)]
                                    if len(costs) > 1 else [c / 1e3 for c in costs]),
            "busy_s": self.busy_ns / 1e9,
        }
