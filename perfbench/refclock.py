"""Reference CPU speed, sampled between the ops of a run.

The speed of a shared machine drifts: other tenants on the same cores can
make a phase of a run up to twice as fast as the next. The drift slows a
fixed chunk of pure-Python Fraction matrix products, the loop that
dominates flatlink's own time, by about the same factor as it slows
flatlink. So the benchmark samples that chunk every `EVERY_S` seconds
between ops and scales each op's time by
`CHUNK_REF_S / (chunk time around the op)`. A scaled time is the time the
op would take on a machine where the chunk takes exactly `CHUNK_REF_S`.
The chunk never calls flatlink, so a change to flatlink moves scaled and
unscaled times alike. The correction is partial: in a fast phase the chunk
gains about 1.5 times as much as flatlink does.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

CHUNK_REF_S = 0.0022
EVERY_S = 0.1
WINDOW_S = 0.5  # samples this close to an op are taken as its speed
MAX_BURST = 5


def _chunk():
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 7 + 1) for j in range(6)]
        for i in range(6)
    ]
    cols = list(zip(*rows))
    acc = rows
    for _ in range(2):
        acc = [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in acc]
    return acc


class RefClock:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        _chunk()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def burst(self, n: int):
        for _ in range(n):
            self.sample()

    def maybe_sample(self):
        """Sample once per EVERY_S elapsed since the last sample, at most
        MAX_BURST times, so that ops longer than EVERY_S are bracketed by
        several samples while short ops cost one sample per EVERY_S."""
        if not self.at:
            self.sample()
            return
        due = int((time.perf_counter() - self.at[-1]) / EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds spent in [t0, t1] to reference seconds.

        Uses the samples within WINDOW_S of the interval and one more on
        each side, where they exist.
        """
        lo = max(0, bisect.bisect_left(self.at, t0 - WINDOW_S) - 1)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S) + 1
        return CHUNK_REF_S / statistics.median(self.took[lo:hi])

    def median_scale(self) -> float:
        return CHUNK_REF_S / statistics.median(self.took)
