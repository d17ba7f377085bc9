"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a shared virtual machine whose speed changes while it
runs: a fixed pure-Python loop runs about 1.5 times slower in some phases
than in others, and a phase lasts from seconds to minutes.  Process CPU time
changes the same way, so the time is not taken from the process but made
slower.  A run of one workload cannot average such phases out, so every time
metric is reported at a fixed reference speed instead.

`Calibration.sample` times one run of `kernel`, a fixed search over tuples
and an integer loop written here, with the garbage collector off.  The measuring loop samples
every `EVERY_S` seconds between ops, so the record follows the host's speed
through the run.  `Calibration.scale(t0, t1)` is the factor that turns a wall
time measured over [t0, t1] into time at the reference speed: `REF_S` over
the median kernel time of the samples inside the interval and the two on
each side of it.  The kernel shares no code with `petrialign`, so a change to
the package cannot change how fast the kernel runs.  The kernel follows the
workloads' speed closely but not exactly: a phase that slows it more than
the workload makes the scaled times read low.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from heapq import heappop, heappush

# Kernel wall time at the reference speed: about what it takes on a 2-vCPU
# Xeon (2.1 GHz) virtual machine, Python 3.11, in the host's usual phase.
REF_S = 0.0032
# Seconds of measuring between two samples.  A sample costs about REF_S, so
# sampling adds about 6% to a run's wall time, none of it to an op's time.
EVERY_S = 0.05


def kernel(n: int = 8, loops: int = 12_000) -> int:
    """Least-cost search over an n x n x n torus of tuple states with a heap
    and a dict, the kind of work the package's solvers do, then an integer
    loop.  The host's phases slow the two parts by different amounts, and
    the sum of both follows the workloads more closely than either alone."""
    dist: dict = {}
    heap = [(0, (0, 0, 0))]
    while heap:
        d, s = heappop(heap)
        if s in dist:
            continue
        dist[s] = d
        i, j, k = s
        for nxt in (((i + 1) % n, j, k), (i, (j + 1) % n, k), (i, j, (k + 1) % n)):
            if nxt not in dist:
                heappush(heap, (d + (i + j + k) % 3, nxt))
    total = 0
    for i in range(loops):
        total += i * i % 7
    return len(dist) + total


class Calibration:
    """Kernel times sampled over the run, by when they were taken."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._cache: dict = {}

    def sample(self) -> None:
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.kernel_s.append(elapsed)
        self._cache.clear()

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median kernel time around [t0, t1]: at least four
        samples, the ones inside it and two on each side where there are."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        key = (lo, hi)
        if key not in self._cache:
            n = len(self.times)
            lo2, hi2 = max(0, lo - 2), min(n, hi + 2)
            width = hi - lo + 4
            if hi2 - lo2 < width:
                lo2, hi2 = max(0, hi2 - width), min(n, lo2 + width)
            self._cache[key] = REF_S / statistics.median(self.kernel_s[lo2:hi2])
        return self._cache[key]

    def speed(self) -> float:
        """Median kernel time of the run over REF_S: above 1 when the host ran
        slower than the reference speed."""
        return statistics.median(self.kernel_s) / REF_S
