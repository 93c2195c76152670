"""The host-speed reference behind the benchmark's reported times.

The benchmark machine is a share of a host whose single-core throughput
swings by up to 1.5x from one second or minute to the next, with no steal
time; CPU time swings with it.  So every reported time is taken in
reference seconds: the measured seconds times REF_S over the mean time of
a fixed reference loop, sampled between the jobs of the same stretch of
work and left out of the measured time.  On a host running at the
reference speed a reference second is a second.

The two vCPUs swing apart (at one moment the loop took 23 ms on one and
35 ms on the other), so the loop must run where the work runs.  The
benchmark pins its processes to one CPU, HOME, for the timed work and the
loop alike; only the CLI command with `--jobs 2` gets every CPU, because
its pool needs two.

The loop does what the package spends its time on: Fraction arithmetic
into dicts keyed by small tuples.  It is fixed; a change that claims a
gain must not touch it.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

REF_S = 0.035  # about the loop's median time on a 2-vCPU Xeon VM, Python 3.11
ROUNDS = 2  # loops per sample
CPUS = frozenset(os.sched_getaffinity(0))
HOME = frozenset({min(CPUS)})


def pin(cpus: frozenset[int]) -> None:
    """Run this process, and the children it starts from now on, on `cpus`."""
    os.sched_setaffinity(0, cpus)


def _loop() -> float:
    start = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    step = Fraction(1, 3)
    for i in range(6000):
        key = (i & 63, i % 5)
        acc[key] = acc.get(key, 0) + step * i
    return time.perf_counter() - start


class Probe:
    """Reference-loop samples taken between the jobs of one stretch of work."""

    def __init__(self):
        self.loops: list[float] = []

    def sample(self) -> None:
        self.loops += [_loop() for _ in range(ROUNDS)]

    def scale(self) -> float:
        """Reference seconds per measured second over the samples so far."""
        return REF_S / statistics.mean(self.loops)
