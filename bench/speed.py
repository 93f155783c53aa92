"""A probe of how fast the machine runs right now.

On a shared virtual machine the same round at the same seed can take
1.3 s once and 1.9 s a minute later.  Timing ``reference_work`` next to
the measured work gives a slowdown factor to divide times by, so that
metrics are in seconds of a machine on which ``reference_work`` takes
``REFERENCE_S``.  The work uses nothing from heckelab, so a change to
the program cannot move the factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds ``reference_work`` takes at the reference machine speed.
REFERENCE_S = 0.030


def reference_work():
    """Fixed work shaped like the suites': small numpy calls from a Python
    loop, then plain integer arithmetic."""
    n = np.arange(-8, 9)
    acc, total = 0j, 0
    for k in range(1500):
        acc += np.exp(1j * np.pi * (0.21 * n * n + 0.02 * k * n)).sum()
    for i in range(150_000):
        total += i * i
    return acc, total


def probe() -> float:
    """Seconds one ``reference_work`` call takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Speedometer:
    """Probe samples taken between measurements."""

    def __init__(self):
        reference_work()  # the first call in a process pays one-time set-up
        self.samples: list[float] = []

    def probe(self) -> None:
        self.samples.append(probe())

    @property
    def slowdown(self) -> float:
        """Mean probe time over ``REFERENCE_S``; divide times by it."""
        return statistics.fmean(self.samples) / REFERENCE_S
