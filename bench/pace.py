"""A fixed reference loop that measures how fast the host runs Python just now.

On a shared host the speed of a core drifts: other tenants come and go, and
the same cold answer can take 1.7 times as long one second as the next.
Wall seconds then spread more between runs of the same code than the
regressions the benchmark must catch.  So the benchmark times this loop
alongside the work, outside the timed regions, and scales every time it
reports to the reference speed:

    reference seconds = wall seconds * REF_S / (the loop's time just then)

The loop is plain Python of the same kinds as nearcentral's hot paths
(permutations and cycle types, Fractions, big integers, and a dict of 4000
tuple keys) and never changes with the library, so a slower library still
reads slower, while a slower host reads much less slower.  On a host where
the loop takes REF_S, reference seconds are wall seconds.
"""

from __future__ import annotations

import gc
import itertools
import time
from fractions import Fraction

# the loop's typical time on a 2-vCPU x86-64 host under CPython 3.11
REF_S = 0.003
# the least wall time between two samples while answers run
EVERY_S = 0.1


def _loop() -> tuple[dict, Fraction, int, int]:
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for perm in itertools.permutations(range(6)):
        seen = [False] * 6
        cycle_type = []
        for start in range(6):
            length = 0
            point = start
            while not seen[point]:
                seen[point] = True
                point = perm[point]
                length += 1
            if length:
                cycle_type.append(length)
        key = tuple(sorted(cycle_type, reverse=True))
        counts[key] = counts.get(key, 0) + 1
        total += len(key) * perm[0]
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(total, k * k + 1)
    big = 1
    for k in range(1, 40):
        big = big * (3 ** 40 + k) % 7 ** 300
    table = {}
    for k in range(4000):
        table[k * 7919 % 4001, k & 15] = k
    found = sum(table.get((k * 7919 % 4001, k & 15), 0) for k in range(0, 4000, 3))
    return counts, acc, big, found


def sample() -> float:
    """The loop's wall time now: the median of three repetitions.

    The garbage collector is off meanwhile: a collection would scan the
    caller's heap, whose size depends on the work around the sample.
    """
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return sorted(times)[1]


class Pacer:
    """Samples of the reference loop taken between the calls of one batch."""

    def __init__(self) -> None:
        self.samples = [sample()]
        # seconds spent sampling, which callers keep off their clocks
        self.spent = 0.0
        self._at = time.perf_counter()

    def between(self) -> None:
        """Samples if EVERY_S has passed since the last sample."""
        now = time.perf_counter()
        if now - self._at >= EVERY_S:
            self.samples.append(sample())
            self._at = time.perf_counter()
            self.spent += self._at - now

    def scale(self, first: int, last: int) -> float:
        """REF_S over the mean of samples first to last, both included."""
        window = self.samples[first:last + 1]
        return REF_S * len(window) / sum(window)

