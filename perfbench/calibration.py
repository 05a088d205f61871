"""Host-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute: a fixed pure-Python loop took 0.21 to 0.29 s from one
second to the next on a 2-vCPU VM, with no steal time reported. So every
timed run interleaves short slices of a fixed kernel, written here and not
in tmzv, between the ops it measures (never inside one), and each measured
interval is scaled by REFERENCE_S over the kernel time around it:

    scaled = measured * REFERENCE_S / mean(kernel time before, kernel time after)

A scaled time is the time the op would have taken at the host speed at
which the kernel takes REFERENCE_S. A change to tmzv moves the scaled
times exactly as it moves the raw ones; drift of the host moves both the
op and the kernel and cancels. Raw times are recorded beside the scaled
ones in the results file.

The kernel does what tmzv's exact layer does most: small Fraction
arithmetic and dict updates keyed by short strings.

Set-up time follows the host's file and memory traffic more than its
compute speed, so it has its own reference instead of the kernel: a fresh
interpreter importing a fixed set of the modules tmzv builds on
(IMPORT_PROBE). Each set-up sample is scaled by REFERENCE_IMPORT_S over
the mean time of the reference imports run just before and just after it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

perf_counter = time.perf_counter

# Kernel seconds at the nominal host speed: about the median kernel time of
# the seed-commit baseline runs on a 2-vCPU Xeon VM. It only sets the unit.
REFERENCE_S = 0.013
KERNEL_STEPS = 1000
ARRAY_LEN = 100_000
PERIOD_S = 0.2  # workload seconds between two kernel slices

# Reference import seconds at the nominal host speed, about its median on
# the baseline host; like REFERENCE_S it only sets the unit.
REFERENCE_IMPORT_S = 0.09
IMPORT_PROBE = """
import time
start = time.perf_counter()
import argparse, dataclasses, fractions, functools, itertools, json, math, random, typing
import numpy
print(time.perf_counter() - start)
"""

_WORDS = tuple("x" * (i % 5) + "y" * (1 + i % 3) for i in range(64))


def kernel(steps: int = KERNEL_STEPS) -> float:
    """One calibration slice; returns its duration in seconds."""
    start = perf_counter()
    vals = np.arange(1, ARRAY_LEN + 1, dtype=np.float64)
    for k in (2.0, 3.0):
        np.cumsum(vals ** -k)
    table: dict[str, Fraction] = {}
    for i in range(steps):
        a = Fraction(i % 11 - 5, i % 7 + 1)
        b = Fraction(i % 5 + 1, i % 3 + 2)
        word = _WORDS[i & 63]
        cur = table.get(word)
        value = a * b + a
        table[word] = value if cur is None else cur + value
    return perf_counter() - start


class SpeedClock:
    """Kernel slices taken between ops, splitting a run into windows.

    Window ``i`` is the workload time between slice ``i`` and slice
    ``i + 1``. Call ``sample()`` once before the first op and once after
    the last; ``maybe_sample()`` between ops.
    """

    def __init__(self) -> None:
        kernel()  # warm-up, not recorded
        self.slices: list[float] = []
        self.bounds: list[tuple[float, float]] = []
        self.last = perf_counter()

    @property
    def window(self) -> int:
        return len(self.slices) - 1

    def sample(self) -> None:
        start = perf_counter()
        self.slices.append(kernel())
        self.last = perf_counter()
        self.bounds.append((start, self.last))

    def maybe_sample(self) -> bool:
        """Take a slice when PERIOD_S of workload has passed since the last."""
        if perf_counter() - self.last < PERIOD_S:
            return False
        self.sample()
        return True

    def factor(self, window: int) -> float:
        around = self.slices[window : window + 2]
        return REFERENCE_S * len(around) / sum(around)

    def scale(self, seconds: float, window: int) -> float:
        return seconds * self.factor(window)

    def scale_interval(self, start: float, end: float) -> float:
        """Scaled length of [start, end] with the slices inside it left out."""
        total = 0.0
        for i in range(len(self.bounds) - 1):
            lo = max(start, self.bounds[i][1])
            hi = min(end, self.bounds[i + 1][0])
            if hi > lo:
                total += (hi - lo) * self.factor(i)
        return total


class RawClock:
    """Stand-in that takes no slices and scales nothing, for traced passes
    and their untraced twins, whose spans must not contain kernel time."""

    window = 0
    slices: list[float] = []

    def sample(self) -> None:
        pass

    def maybe_sample(self) -> bool:
        return False

    def scale(self, seconds: float, window: int) -> float:
        return seconds

    def scale_interval(self, start: float, end: float) -> float:
        return end - start
