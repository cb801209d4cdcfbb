#!/usr/bin/env python3
"""Single-layer reference timings quoted in perfbench/README.md.

    python3 perfbench/reference_figures.py

Each figure is the median of repeated calls in one warm process.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mollikit.distributions import t4_quantile  # noqa: E402
from mollikit.estimator import (LinearSample, fit_convolution_baseline,  # noqa: E402
                                fit_smoothed)
from mollikit.kernels import bump_kernel, gaussian_kernel  # noqa: E402
from mollikit.losses import check_loss  # noqa: E402
from mollikit.mollify import PartialMomentSmoother  # noqa: E402
from mollikit.montecarlo import (ExperimentConfig, error_quantile_shift,  # noqa: E402
                                 generate_sample)


def median_ms(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> None:
    rng = np.random.default_rng(0)
    u = rng.standard_normal(100_000)
    loss = check_loss(0.3)
    for kernel in (bump_kernel(), gaussian_kernel()):
        smoother = PartialMomentSmoother(loss, kernel, 10.0)
        ms = median_ms(lambda: smoother.curvature_pair(u), 21)
        print(f"curvature_pair, check:0.3, {kernel.kind}, m=10, 1e5 points: "
              f"{ms:.1f} ms")
    p = rng.random(200_000)
    print(f"t4_quantile, 2e5 points: {median_ms(lambda: t4_quantile(p), 5):.0f} ms")
    config = ExperimentConfig(n=100, replications=10, tau=0.3, error_dist="t4",
                              m_list=(10.0,))
    sample: LinearSample = generate_sample(config, 0)
    ms = median_ms(lambda: fit_smoothed(sample, loss, bump_kernel(), 10.0), 101)
    print(f"fit_smoothed, bump, m=10, n=100: {ms:.2f} ms")
    ms = median_ms(lambda: fit_convolution_baseline(sample, 0.3, 0.1), 101)
    print(f"fit_convolution_baseline, h=0.1, n=100: {ms:.2f} ms")
    ms = median_ms(lambda: generate_sample(config, 1), 101)
    print(f"generate_sample, t4, n=100: {ms:.2f} ms")
    ms = median_ms(lambda: error_quantile_shift("t4", 0.3), 101)
    print(f"error_quantile_shift('t4', 0.3): {ms:.2f} ms")


if __name__ == "__main__":
    main()
