"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
The heavy Monte Carlo fixtures are shared across criteria.
"""
import os
import time

import numpy as np
import pytest

from mollikit.distributions import standard_normal
from mollikit.estimator import fit_exact_scalar_quantile
from mollikit.kernels import bump_kernel, gaussian_kernel, kernel_abs_moment
from mollikit.losses import (absolute_loss, check_loss, huber_loss, loss_value,
                             relu_loss)
from mollikit.mollify import (_value_quadrature, expected_derivative_gap,
                              smooth_derivative, smooth_second_derivative,
                              smooth_value, smoothed_loss, sup_error)
from mollikit.montecarlo import (ExperimentConfig, generate_sample,
                                 run_mad_experiment, run_rmse_experiment)
from mollikit.quadratic import (approximation_gap, beta_Q, build_quadratic,
                                loglog_scale)

BUMP = bump_kernel()
GAUSS = gaussian_kernel()
GRID = np.linspace(-3.0, 3.0, 6001)
MU1_BUMP = kernel_abs_moment(BUMP, 1)
MU2_BUMP = kernel_abs_moment(BUMP, 2)
A_NORMAL = 0.3989422804014327
THREADS = min(4, os.cpu_count() or 1)

PAIRS = [(loss, kern)
         for loss in (absolute_loss(), check_loss(0.3), huber_loss(1.0),
                      relu_loss())
         for kern in (GAUSS, BUMP)]


def report(num: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sup_errors():
    start = time.perf_counter()
    sups = {}
    for loss, kern in PAIRS:
        for m in (5, 10, 20, 40, 80):
            s = smoothed_loss(loss, kern, m)
            sups[(loss.label, kern.kind, m)] = sup_error(s, GRID)
    return sups, time.perf_counter() - start


@pytest.fixture(scope="module")
def rmse_cells():
    cells = {}
    for dist in ("t4", "normal01"):
        for tau in (0.3, 0.7):
            for n in (100, 200):
                cfg = ExperimentConfig(n=n, replications=1000, tau=tau,
                                       error_dist=dist, m_list=(5.0, 10.0, 15.0),
                                       h_list=(), base_seed=20260810)
                cells[(dist, tau, n)] = run_rmse_experiment(cfg, threads=THREADS)
    return cells


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_uniform_rate_bound(sup_errors):
    sups, elapsed = sup_errors
    worst = -np.inf
    for loss, kern in PAIRS:
        mu1 = kernel_abs_moment(kern, 1)
        for m in (5, 10, 20, 40, 80):
            slack = sups[(loss.label, kern.kind, m)] \
                - (loss.lipschitz * mu1 / m + 1e-9)
            worst = max(worst, slack)
    ok = worst <= 0.0 and elapsed < 30.0
    report(1, "uniform-rate-bound", ok,
           f"worst slack {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_02_rate_sharpness(sup_errors):
    sups, _ = sup_errors
    errs = {m: sups[("abs", "bump", m)] for m in (5, 10, 20, 40, 80)}
    eq_gap = max(abs(errs[m] - MU1_BUMP / m) for m in errs)
    ratios = [errs[m] / errs[2 * m] for m in (5, 10, 20, 40)]
    ok = eq_gap < 1e-8 and all(1.99 <= r <= 2.01 for r in ratios)
    report(2, "rate-sharpness", ok,
           f"max |sup - mu1/m| {eq_gap:.2e}, ratios {[round(r, 4) for r in ratios]}")


def test_criterion_03_exactness_region():
    m = 10.0
    worst = 0.0
    for loss in (absolute_loss(), check_loss(0.3), relu_loss()):
        s = smoothed_loss(loss, BUMP, m)
        mask = np.abs(GRID) > 0.1
        worst = max(worst, np.max(np.abs(
            smooth_value(s, GRID[mask]) - loss_value(loss, GRID[mask]))))
    hub = huber_loss(1.0)
    s = smoothed_loss(hub, BUMP, m)
    mask = np.abs(GRID) > 1.1
    worst = max(worst, np.max(np.abs(
        smooth_value(s, GRID[mask]) - loss_value(hub, GRID[mask]))))
    ok = worst < 1e-10
    report(3, "exactness-region", ok, f"worst gap {worst:.2e}")


def test_criterion_04_huber_interior_rate():
    vals = {}
    worst = 0.0
    for m in (20, 40):
        interior = GRID[np.abs(GRID) <= 1.0 - 1.0 / m]
        s = smoothed_loss(huber_loss(1.0), BUMP, m)
        vals[m] = sup_error(s, interior)
        worst = max(worst, abs(vals[m] - MU2_BUMP / (2 * m * m)))
    ratio = vals[20] / vals[40]
    ok = worst < 1e-9 and 3.98 <= ratio <= 4.02
    report(4, "huber-interior-rate", ok,
           f"worst |err - mu2/(2m^2)| {worst:.2e}, ratio {ratio:.5f}")


def test_criterion_05_closed_form_equivalence():
    start = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 601)
    worst = 0.0
    for loss in (absolute_loss(), check_loss(0.3), relu_loss()):
        for m in (1, 5, 10, 15):
            s = smoothed_loss(loss, GAUSS, m)
            worst = max(worst, np.max(np.abs(
                smooth_value(s, grid) - _value_quadrature(s, grid))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(5, "closed-form-equivalence", ok,
           f"max diff {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_06_derivative_chain():
    rng = np.random.default_rng(20260806)
    h = 1e-5
    ok = True
    worst1 = worst2 = 0.0
    for loss, kern in PAIRS:
        # 200 draws per pair: 10 random scales, 20 random points each
        for m in rng.uniform(1.0, 40.0, 10):
            u = rng.uniform(-2.5, 2.5, 20)
            s = smoothed_loss(loss, kern, m)
            fd1 = (smooth_value(s, u + h) - smooth_value(s, u - h)) / (2 * h)
            d1 = smooth_derivative(s, u)
            r1 = np.abs(fd1 - d1) / np.maximum(np.maximum(np.abs(d1), np.abs(fd1)),
                                               1e-3)
            fd2 = (smooth_derivative(s, u + h)
                   - smooth_derivative(s, u - h)) / (2 * h)
            d2 = smooth_second_derivative(s, u)
            r2 = np.abs(fd2 - d2) / np.maximum(np.maximum(np.abs(d2), np.abs(fd2)),
                                               1e-2 * m)
            worst1 = max(worst1, float(np.max(r1)))
            worst2 = max(worst2, float(np.max(r2)))
    ok = worst1 <= 1e-4 and worst2 <= 1e-3
    report(6, "derivative-chain", ok,
           f"worst rel err order1 {worst1:.2e}, order2 {worst2:.2e}")


def test_criterion_07_derivative_gap_rate():
    density = standard_normal()
    g10 = expected_derivative_gap(check_loss(0.5), BUMP, 10.0, density)
    g20 = expected_derivative_gap(check_loss(0.5), BUMP, 20.0, density)
    ratio = g10 / g20
    ok = 1.6 <= ratio <= 2.4
    report(7, "derivative-gap-rate", ok,
           f"gap(10) {g10:.5f}, gap(20) {g20:.5f}, ratio {ratio:.3f}")


def test_criterion_08_gap_sup_slope():
    start = time.perf_counter()
    loss = check_loss(0.5)
    meds = {}
    for n in (100, 400, 1600, 6400):
        cfg = ExperimentConfig(n=n, replications=200, tau=0.5,
                               error_dist="normal01", m_list=(5.0,),
                               base_seed=808)
        gaps = [approximation_gap(generate_sample(cfg, j), loss, A_NORMAL,
                                  2.0, probes=512) for j in range(200)]
        meds[n] = float(np.median(gaps))
    ns = np.array(sorted(meds))
    slope = float(np.polyfit(np.log(ns), np.log([meds[n] for n in ns]), 1)[0])
    scale_slope = float(np.polyfit(
        np.log(ns), np.log([loglog_scale(int(n)) for n in ns]), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (-0.65 <= slope <= -0.35) and elapsed < 300.0
    report(8, "gap-sup-slope", ok,
           f"medians {[round(meds[n], 4) for n in ns]}, slope {slope:.3f} "
           f"(band [-0.65, -0.35]; loglog_scale slope {scale_slope:.3f}), "
           f"runtime {elapsed:.0f}s")


def test_criterion_09_surrogate_minimizer_variance():
    start = time.perf_counter()
    cfg = ExperimentConfig(n=2000, replications=2000, tau=0.5,
                           error_dist="normal01", m_list=(5.0,), base_seed=911)
    loss = check_loss(0.5)
    vals = np.empty(2000)
    for j in range(2000):
        s = generate_sample(cfg, j)
        vals[j] = beta_Q(build_quadratic(s, loss, A_NORMAL))[0]
    var = float(np.var(vals, ddof=1))
    target = 0.25 / (A_NORMAL**2 * 2.0)
    elapsed = time.perf_counter() - start
    ok = abs(var - target) <= 0.10 * target and elapsed < 120.0
    report(9, "surrogate-minimizer-variance", ok,
           f"variance {var:.4f} vs {target:.4f} (+-10%), runtime {elapsed:.0f}s")


def test_criterion_10_mad_reproduction():
    start = time.perf_counter()
    cfg_t4 = ExperimentConfig(n=100, replications=1000, tau=0.5,
                              error_dist="t4", m_list=(5.0,),
                              base_seed=20260810)
    cfg_n = ExperimentConfig(n=200, replications=1000, tau=0.5,
                             error_dist="normal01", m_list=(15.0,),
                             base_seed=20260810)
    res_t4 = run_mad_experiment(cfg_t4, threads=THREADS)
    res_n = run_mad_experiment(cfg_n, threads=THREADS)
    mad_t4, mad_n = res_t4.mad_m["5"], res_n.mad_m["15"]
    bm_t4, bq_t4 = res_t4.mean_abs_beta_m["5"], res_t4.mean_abs_beta_q
    bm_n, bq_n = res_n.mean_abs_beta_m["15"], res_n.mean_abs_beta_q
    elapsed = time.perf_counter() - start
    ok_t4 = abs(mad_t4 - 0.838) <= 0.2 * 0.838
    ok_n = abs(mad_n - 0.680) <= 0.2 * 0.680
    ok = ok_t4 and ok_n and elapsed < 600.0
    report(10, "mad-table-reproduction", ok,
           f"mad(t4,n=100,m=5) {mad_t4:.3f} vs 0.838 +-20% "
           f"[mean|beta_m| {bm_t4:.3f}, mean|beta_Q| {bq_t4:.3f}], "
           f"mad(normal,n=200,m=15) {mad_n:.3f} vs 0.680 +-20% "
           f"[mean|beta_m| {bm_n:.3f}, mean|beta_Q| {bq_n:.3f}], "
           f"runtime {elapsed:.0f}s")


def test_criterion_11_rmse_relative_claims(rmse_cells):
    worst_diff = 0.0
    worst_spread = 0.0
    for res in rmse_cells.values():
        ms = list(res.rmse_m.values())
        worst_diff = max(worst_diff,
                         max(abs(v - res.rmse_tau) for v in ms))
        worst_spread = max(worst_spread, max(ms) - min(ms))
    ok = worst_diff <= 0.02 and worst_spread <= 0.01
    report(11, "rmse-relative-claims", ok,
           f"worst |RMSE_m - RMSE_tau| {worst_diff:.4f} (<= 0.02), "
           f"worst m-spread {worst_spread:.4f} (<= 0.01) over 8 cells at M=1000")


def test_criterion_12_rmse_consistency(rmse_cells):
    ok = True
    details = []
    for dist in ("t4", "normal01"):
        for tau in (0.3, 0.7):
            r100 = rmse_cells[(dist, tau, 100)].rmse_tau
            r200 = rmse_cells[(dist, tau, 200)].rmse_tau
            details.append(f"{dist}/tau={tau}: {r100:.4f}->{r200:.4f}")
            ok &= r200 < r100
    report(12, "rmse-consistency-in-n", ok, "; ".join(details))


def test_criterion_13_determinism_across_threads():
    cfg = ExperimentConfig(n=100, replications=50, tau=0.3, error_dist="t4",
                           m_list=(5.0, 10.0), h_list=(0.5,), base_seed=424242)
    r1 = run_rmse_experiment(cfg, threads=1)
    r3 = run_rmse_experiment(cfg, threads=3)
    cfg_mad = ExperimentConfig(n=100, replications=50, tau=0.5,
                               error_dist="normal01", m_list=(5.0,),
                               base_seed=424242)
    m1 = run_mad_experiment(cfg_mad, threads=1)
    m3 = run_mad_experiment(cfg_mad, threads=3)
    ok = (r1.records == r3.records and r1.rmse_m == r3.rmse_m
          and r1.rmse_tau == r3.rmse_tau and m1.records == m3.records
          and m1.mad_m == m3.mad_m)
    report(13, "thread-count-determinism", ok,
           "identical per-replication records for 1 vs 3 workers")
