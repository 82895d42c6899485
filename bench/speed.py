"""Machine-speed probe, for timings that hold still on a shared machine.

On a shared virtual machine the speed of a vCPU changes by up to a
factor of two within seconds, as other tenants load the physical core.
A fixed probe (interpreter loops, big-integer and ``Fraction``
arithmetic, ``lgamma``, dict and string work: the operations rrshuffle
spends its time in) is timed before and after each task, on the same
pinned CPU, and each wall time is scaled by ``REFERENCE_S`` over the
probe's mean.  The result is the task's time at a fixed reference
speed: a regression in the program shows in full, while the machine's
speed changes cancel.  Raw wall times are kept in the run record.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

clock = time.perf_counter

#: Best-of-five probe time in seconds at the reference speed: a quiet
#: phase of a 2-vCPU Intel Xeon virtual machine running Python 3.11.
REFERENCE_S = 0.0006
REPEATS = 5


def _work():
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    big = 3**400
    for i in range(200):
        acc += big * (i + 1) % 1000003
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    table = {}
    for i in range(400):
        table[i] = str(i)
    for i in range(1, 200):
        acc += int(math.exp(math.lgamma(i % 20 + 1) - math.lgamma(i % 7 + 1)))
    return acc, total, table


def probe() -> float:
    """Best of ``REPEATS`` timings of the fixed probe work."""
    best = math.inf
    for _ in range(REPEATS):
        start = clock()
        _work()
        best = min(best, clock() - start)
    return best


class Speed:
    """Scales wall times to the reference speed, probing between tasks."""

    def __init__(self):
        self.last = probe()

    def scale(self, wall: float) -> float:
        """Reference seconds for ``wall`` seconds that ended just now."""
        now = probe()
        mean, self.last = (self.last + now) / 2, now
        return wall * REFERENCE_S / mean


def pin_to_current_cpu():
    """Keep this process (and its children) on the CPU it runs on, so the
    probe and the task it scales run on the same vCPU."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    os.sched_setaffinity(0, {int(fields[36])})
