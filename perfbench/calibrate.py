"""Host-speed calibration for the benchmark's timings.

On a shared machine the speed a process gets drifts by tens of percent, over
seconds as well as minutes: a fixed pure-Python loop timed back to back on a
shared 2-core x86-64 host varied by 40 % between 20 s windows, its minimum as
much as its median.  No statistic over one run removes drift that slow.  So
the benchmark runs a small fixed reference kernel of its own every
INTERVAL_S of wall time, from a timer signal, while the program works, and
scales each measured interval by

    REFERENCE_S / (mean kernel time during the interval, TRIM cut from each end)

The result reads as seconds on a host where the kernel takes REFERENCE_S,
about this benchmark's defining host at a typical speed.  The kernel is the
benchmark's code, not the program's, so a change to the program moves the
scaled time as it moves the wall time; only the host's speed drops out.
Timed on that host for 200 s next to a solve and a Monge check, the wall
times of 20 s windows spread by 0.14 between quartiles and their ratio to
the kernel's by 0.03.

The kernel (label setting with a binary heap over a fixed weighted grid)
does the same kind of interpreter work as the program: dict and list
access, float arithmetic, heapq, tuples.  It runs with the cyclic garbage
collector paused, so its time does not depend on how many objects the
program keeps alive.  Its samples take about 3 % of every timed interval.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

REFERENCE_S = 0.003  # seconds per kernel run on the defining host, typical load
INTERVAL_S = 0.1  # wall time between samples
GRID_N = 40
TRIM = 0.1  # a sample hit by a pause of the whole machine tells little about its speed


def _grid(n: int) -> list[list[tuple[int, float]]]:
    adj = []
    for i in range(n):
        for j in range(n):
            nbrs = []
            for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if 0 <= a < n and 0 <= b < n:
                    nbrs.append((a * n + b, 1.0 + (a * 7 + b * 3) % 5 / 10.0))
            adj.append(nbrs)
    return adj


class Sampler:
    """Times the kernel every INTERVAL_S from SIGALRM between start() and
    stop(); samples are (perf_counter at start, seconds)."""

    def __init__(self):
        self.adj = _grid(GRID_N)
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> None:
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for w, length in self.adj[v]:
                nd = d + length
                if nd < dist.get(w, float("inf")):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))

    def sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, t0: float, t1: float, at_least: int = 1) -> list[float]:
        """The samples taken from t0 to t1 (perf_counter readings).  An
        interval too short to hold ``at_least`` of them takes the rest now."""
        found = [s for start, s in self.samples if t0 <= start < t1]
        while len(found) < at_least:
            self.sample()
            found.append(self.samples[-1][1])
        return found


def scale(samples: list[float]) -> float:
    """The factor that turns a wall time into seconds at reference speed,
    from the samples taken during it: REFERENCE_S over their mean, TRIM of
    them cut from each end."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut : len(ordered) - cut]
    return REFERENCE_S * len(kept) / sum(kept)
