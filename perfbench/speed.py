"""Times at reference speed: a fixed kernel measures how fast the host runs.

On a shared host the same computation runs up to 1.8x slower for seconds
to minutes at a time, as other tenants load the machine; the slowdown is
the same for every commit under test, so it is noise.  A small pure-Python
kernel (exact ``Fraction`` arithmetic, like the library) is timed between
requests.  A time measured at instant t is rescaled by
``REF_MS / (the kernel's median time within WINDOW_S of t)``, which is what
it would have read at the kernel's nominal speed.  A set-up, which runs
in its own process, is rescaled with kernel runs on both sides of it: in
the parent just before the spawn and in the child once it is ready.  The
kernel uses no library code, so a change to the library moves the request
times and not the kernel.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REF_MS = 2.0  # the kernel's time on an unloaded core of a 2-core x86-64 host, Python 3.11
EVERY_S = 0.1  # at most one kernel run per 0.1 s: 2-3% of the time
WINDOW_S = 1.0
SETUP_RUNS = 10  # kernel runs on each side of a set-up probe


def reference_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def kernel_times(count: int) -> list[float]:
    """Seconds taken by each of ``count`` runs of the kernel."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return times


def factor_of(durations: list[float]) -> float:
    """Reference speed over the speed those kernel runs measured."""
    return REF_MS / 1000 / statistics.median(durations)


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []  # midpoints, increasing
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def tick(self) -> None:
        """Run the kernel if the last run is more than EVERY_S old."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """Reference speed over measured speed around instant t.

        Uses the kernel runs within WINDOW_S of t plus the nearest run on
        each side, so a request longer than the window still has both
        neighbours.
        """
        lo = max(bisect_left(self.times, t - WINDOW_S) - 1, 0)
        hi = bisect_right(self.times, t + WINDOW_S) + 1
        return factor_of(self.durations[lo:hi])
