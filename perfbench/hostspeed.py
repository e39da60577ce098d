"""Host speed reference: a fixed exact-arithmetic kernel that never calls polymod.

On the shared 2-core host the benchmark was written on, other tenants slow
every process by up to 1.8x, in spells of seconds to minutes, so a run's
wall-clock latencies spread by 15-35 % between runs of the same code. The
benchmark times this kernel right after every task, outside the task's
latency, and scales each latency by REFERENCE_S over the kernel's local time
(the median of the kernel times around the task). That removes most of the
drift: the same runs spread by 1-7 % once scaled.

The kernel is plain ``fractions.Fraction`` Gaussian elimination from
``oracle`` on a fixed 6x6 Gaussian-rational matrix: the same kind of work as
polymod's exact arithmetic, but no polymod code, so a change to polymod
cannot move it. It runs once untimed before each timed run, so it is timed
warm, whatever the task before it left in the caches.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import oracle

REFERENCE_S = 1.5e-3  # the kernel's warm time on the unslowed defining host
WINDOW = 2  # kernel times on each side of a task that set its local speed


def _matrix(n: int = 6):
    rng = random.Random(0)
    return [[(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]


MATRIX = _matrix()


def sample() -> float:
    """Seconds of one warm run of the kernel."""
    oracle.rank(MATRIX)
    t0 = perf_counter()
    oracle.rank(MATRIX)
    return perf_counter() - t0


def scaled(latencies, refs):
    """Each latency times REFERENCE_S over the median of the kernel times
    within WINDOW places of it; both lists in run order, refs[i] taken
    right after latencies[i]."""
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
        for i, t in enumerate(latencies)
    ]
