"""Host speed, measured between ops so that end-to-end times can be scaled
to a reference speed.

On a shared 2-core host the same code runs up to 20% slower for stretches of
seconds to minutes, while the other tenants are busy.  Both cores slow
together, and a run of 15-35 s cannot average that out, so raw op times of
one build spread by 10-25% from run to run.  Before every op the benchmark
therefore times a fixed kernel that does not use the library, in the same
proportions as the workloads: interpreter arithmetic, numpy elementwise and
cumulative sums, and a BLAS matrix product with a sign test.  The run's
median kernel time, over ``REFERENCE_S``, is how much slower the host ran
than the reference; end-to-end times are divided by it.  The raw times and
every kernel time are kept in the run record.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

# Median kernel time on the 2-core Xeon the benchmark was written on.
REFERENCE_S = 0.016


@functools.cache
def _inputs() -> tuple[np.ndarray, ...]:
    small = np.linspace(0.5, 1.5, 101)
    powers = np.arange(4000.0)
    rows = np.linspace(-1.0, 1.0, 32 * 256).reshape(32, 256)
    grid = np.vander(np.linspace(-1.0, 1.0, 1024), 256, increasing=True)
    return small, powers, rows, grid


def kernel_seconds() -> float:
    """Time one run of the fixed kernel: about 4 ms each of interpreter
    arithmetic, numpy calls on 101-element arrays (call overhead, as in the
    low-degree moments), elementwise and cumulative sums on 4000 elements,
    and a BLAS product with a sign test (as in the Monte Carlo sign grid)."""
    small, powers, rows, grid = _inputs()
    start = time.perf_counter()
    acc = 0.0
    for j in range(28000):
        acc += math.sqrt(j * 0.5)
    for _ in range(560):
        acc += float(np.dot(small, np.cumsum(small[::-1])[::-1]))
    for _ in range(70):
        b = np.cumsum(np.power(0.9995, powers)[::-1])[::-1]
        acc += float(b @ b)
    for _ in range(3):
        acc += float(np.sign(rows @ grid.T).sum())
    return time.perf_counter() - start


def slowdown(kernel_times: list[float]) -> float:
    """The run's median kernel time over the reference time."""
    return statistics.median(kernel_times) / REFERENCE_S
