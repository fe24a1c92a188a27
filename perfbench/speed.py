"""Host times at a reference machine speed.

The benchmark runs on shared hosts whose per-core speed drifts by up
to ~1.8x over seconds to minutes as other tenants load the same cores.
Raw times move with it: on a 2-vCPU Intel Xeon the median
``sweep_warm`` pass of 20 s stretches of one process spread by 45%
between their quartiles.  A fixed pure-Python kernel that does not
touch the program, timed in the benchmark process between every two
timed intervals (sweep passes, set-up probes), measures the host's
speed at each boundary.  :func:`at_reference` scales each interval by
``REFERENCE_S`` over the mean kernel time at its two ends: what it
would have taken with the kernel at its reference speed.  A change to
the program moves the scaled time as it moves the raw one; the raw
times are reported beside it.
"""

from __future__ import annotations

import time
from typing import Sequence

#: The kernel's time on a quiet core of the reference host
#: (Intel Xeon, 2 vCPUs, Python 3.11).  It only sets the unit.
REFERENCE_S = 0.0075

#: Kernel runs per boundary.
KERNEL_RUNS = 3


def _kernel() -> int:
    acc = 0
    for i in range(200_000):
        acc += i
    return acc


def calibrate() -> float:
    """Seconds one run of the reference kernel takes right now.

    The mean of :data:`KERNEL_RUNS` back-to-back runs: the host's speed
    swings within tens of milliseconds, so one run is a noisy sample.
    """
    t0 = time.perf_counter()
    for _ in range(KERNEL_RUNS):
        _kernel()
    return (time.perf_counter() - t0) / KERNEL_RUNS


def at_reference(raw_s: Sequence[float], kernel_s: Sequence[float]) -> list[float]:
    """Each interval of *raw_s* at the reference speed.

    ``kernel_s[i]`` and ``kernel_s[i + 1]`` are the kernel times taken
    just before and just after interval ``i``.
    """
    if len(kernel_s) != len(raw_s) + 1:
        raise ValueError("need one kernel time per interval boundary")
    return [
        raw * REFERENCE_S / ((a + b) / 2.0)
        for raw, a, b in zip(raw_s, kernel_s, kernel_s[1:])
    ]
