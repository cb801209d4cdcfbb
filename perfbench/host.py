"""Host-speed reference for timings on a machine whose speed drifts.

On the shared two-core machine this benchmark was built on, the same work
took up to a third longer in some minutes than in others, in process CPU
time as much as in wall time, so the host itself changed speed.  A fixed
computation written here, independent of mollikit, is timed right before
every measured step.  Each step's time is then scaled by
`NOMINAL_S / reference time`: the time the step would take on a host
where the reference takes `NOMINAL_S`.  A change to mollikit moves the
step and leaves the reference alone, so the scaled time moves with the
program and not with the neighbours.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# about the reference's median on the machine the benchmark was built on,
# so that scaled figures read close to raw ones there
NOMINAL_S = 0.010


def _reference_work() -> float:
    """Interpreter-bound small-array work, like the Monte Carlo loops, plus
    one pass over arrays too large for the first cache levels, like the
    quadrature sweeps."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(250):
        a = rng.standard_normal(200)
        c = np.cumsum(np.sort(np.exp(-0.5 * a * a)))
        acc += float(np.where(a > 0.0, c, -c) @ a)
        acc += sum(k * 0.5 for k in range(40))
    big = rng.standard_normal(100_000)
    acc += float(np.sort(np.exp(-0.5 * big * big)).sum())
    return acc


def timed(fn, *args):
    """Run the reference, then fn(*args); returns (result, seconds,
    reference seconds)."""
    start = perf_counter()
    _reference_work()
    mid = perf_counter()
    out = fn(*args)
    return out, perf_counter() - mid, mid - start
