import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mollikit import estimator
from mollikit.errors import (DegenerateRegressorError, InvalidBandwidthError,
                             InvalidScaleError, InvalidStartError,
                             NonCoerciveLossError, NonFiniteSampleError,
                             SingularDesignError, UnsupportedDimensionError)
from mollikit.estimator import (FitResult, LinearSample,
                                fit_convolution_baseline,
                                fit_exact_scalar_quantile, fit_smoothed)
from mollikit.kernels import bump_kernel, gaussian_kernel
from mollikit.losses import absolute_loss, check_loss, huber_loss, relu_loss
from mollikit.mollify import PartialMomentSmoother, smoothed_loss
from mollikit.montecarlo import ExperimentConfig, generate_sample

BUMP = bump_kernel()
GAUSS = gaussian_kernel()


def _sim(seed, n, errors="normal"):
    rng = np.random.default_rng(seed)
    x = rng.normal(1, 1, n)
    e = rng.standard_normal(n) if errors == "normal" else rng.standard_t(4, n)
    return LinearSample(x=x, y=x * 1.0 + e, e=e, theta0=np.array([1.0]))


def _same_fit(a: FitResult, b: FitResult) -> bool:
    return (a.theta_hat.tobytes() == b.theta_hat.tobytes()
            and (a.objective, a.iterations, a.converged, a.gradient_norm,
                 a.backtracks, a.fallbacks)
            == (b.objective, b.iterations, b.converged, b.gradient_norm,
                b.backtracks, b.fallbacks))


def _brute_force_quantile(x, y, tau):
    b = y / x
    obj = lambda t: np.sum((y - x * t) * (tau - ((y - x * t) < 0)))
    vals = np.array([obj(t) for t in b])
    best = vals.min()
    return np.sort(b[vals <= best + 1e-11])[0]


# ---------------------------------------------------------------------------
# LinearSample
# ---------------------------------------------------------------------------

def test_sample_shapes_and_validation():
    s = LinearSample(x=np.ones(3), y=np.array([1.0, 2.0, 3.0]))
    assert s.n == 3 and s.d == 1 and s.x.shape == (3, 1)
    with pytest.raises(ValueError):
        LinearSample(x=np.ones((2, 3)), y=np.ones(2))    # n < d
    with pytest.raises(ValueError):
        LinearSample(x=np.ones(3), y=np.ones(4))
    with pytest.raises(ValueError):
        LinearSample(x=np.ones(3), y=np.ones(3), e=np.zeros(3),
                     theta0=np.array([5.0]))             # y != x theta0 + e
    with pytest.raises(ValueError, match="one entry per observation"):
        LinearSample(x=np.ones(3), y=np.ones(3), e=np.zeros(2))
    with pytest.raises(ValueError, match="one entry per regressor"):
        LinearSample(x=np.ones(3), y=np.ones(3), theta0=np.ones(2))


def test_sample_arrays_are_read_only_copies():
    # the least-squares start is cached on the sample, so its arrays must
    # not change under it: neither through the caller's arrays nor its own
    rng = np.random.default_rng(16)
    x = rng.normal(1, 1, (40, 2))
    e = rng.standard_normal(40)
    theta0 = np.array([1.0, -0.5])
    y = x @ theta0 + e
    s = LinearSample(x=x, y=y, e=e, theta0=theta0)
    fresh = fit_smoothed(s, check_loss(0.3), BUMP, 10.0)
    given = (x, y, e, theta0)
    saved = [arr.copy() for arr in given]
    for arr in given:
        arr *= 3.0
    for got, want in zip((s.x, s.y, s.e, s.theta0), saved):
        assert np.array_equal(got, want)
    for arr in (s.x, s.y, s.e, s.theta0):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _same_fit(fit_smoothed(s, check_loss(0.3), BUMP, 10.0), fresh)


def test_sample_rejects_non_finite_values():
    # before the check, the exact solver returned 0.0, NaN and inf here
    ones = np.ones(3)
    for y in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(NonFiniteSampleError):
            LinearSample(x=ones, y=np.array(y))
    with pytest.raises(NonFiniteSampleError):
        LinearSample(x=np.array([1.0, -np.inf, 1.0]), y=np.zeros(3))
    with pytest.raises(NonFiniteSampleError):
        LinearSample(x=ones, y=ones, e=np.array([0.0, np.nan, 0.0]),
                     theta0=np.array([1.0]))
    with pytest.raises(NonFiniteSampleError):
        LinearSample(x=ones, y=ones, e=np.zeros(3), theta0=np.array([np.inf]))


def test_sample_truth_consistency_accepted():
    rng = np.random.default_rng(0)
    x = rng.normal(1, 1, 20)
    e = rng.standard_normal(20)
    s = LinearSample(x=x, y=x * 2.0 + e, e=e, theta0=np.array([2.0]))
    assert np.allclose(s.y - s.x @ s.theta0, s.e, rtol=0, atol=1e-12)


def test_samples_compare_and_hash_by_identity():
    # equal arrays do not make equal samples, and neither == nor hash
    # looks at the arrays
    x, y = np.arange(1.0, 4.0), np.array([2.0, 1.0, 5.0])
    a, b = LinearSample(x=x, y=y), LinearSample(x=x, y=y)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


# ---------------------------------------------------------------------------
# exact scalar quantile solver
# ---------------------------------------------------------------------------

def test_exact_quantile_median():
    s = LinearSample(x=np.ones(3), y=np.array([1.0, 2.0, 3.0]))
    assert fit_exact_scalar_quantile(s, 0.5) == 2.0


def test_exact_quantile_smallest_minimizer_convention():
    s = LinearSample(x=np.ones(4), y=np.array([1.0, 2.0, 3.0, 4.0]))
    assert fit_exact_scalar_quantile(s, 0.25) == 1.0


def test_exact_quantile_single_observation():
    s = LinearSample(x=np.array([2.0]), y=np.array([5.0]))
    for tau in (0.1, 0.5, 0.9):
        assert fit_exact_scalar_quantile(s, tau) == 2.5


def test_exact_quantile_errors():
    s = LinearSample(x=np.array([[1.0, 0.5], [1.0, 1.5]]), y=np.ones(2))
    with pytest.raises(UnsupportedDimensionError):
        fit_exact_scalar_quantile(s, 0.5)
    z = LinearSample(x=np.array([1.0, 0.0, 2.0]), y=np.ones(3))
    with pytest.raises(DegenerateRegressorError):
        fit_exact_scalar_quantile(z, 0.5)
    ok = LinearSample(x=np.ones(3), y=np.ones(3))
    with pytest.raises(ValueError):
        fit_exact_scalar_quantile(ok, 1.5)


def test_exact_quantile_against_brute_force_bulk():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        x = rng.normal(1, 1, n)
        x[x == 0] = 0.3
        y = rng.normal(0, 2, n)
        tau = float(rng.uniform(0.05, 0.95))
        got = fit_exact_scalar_quantile(LinearSample(x=x, y=y), tau)
        assert got == pytest.approx(_brute_force_quantile(x, y, tau), abs=1e-12)
    # tie runs: breakpoints y_i/x_i drawn from a few values, mixed-sign x
    for _ in range(500):
        n = int(rng.integers(1, 15))
        x = rng.normal(0, 1, n)
        x[x == 0] = 0.3
        y = rng.choice(rng.normal(0, 2, int(rng.integers(1, 4))), n) * x
        for tau in (0.1, 0.3, 0.5, 0.9):
            got = fit_exact_scalar_quantile(LinearSample(x=x, y=y), tau)
            assert got == pytest.approx(_brute_force_quantile(x, y, tau),
                                        abs=1e-12)


@given(st.integers(1, 10), st.floats(0.1, 0.9), st.integers(0, 10_000))
def test_exact_quantile_against_brute_force_property(n, tau, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(1, 1, n)
    x[np.abs(x) < 1e-3] = 1.0
    y = rng.normal(0, 1, n)
    got = fit_exact_scalar_quantile(LinearSample(x=x, y=y), tau)
    assert got == pytest.approx(_brute_force_quantile(x, y, tau), abs=1e-12)


def test_exact_quantile_breakpoints_spanning_the_float_range():
    # the gaps between breakpoints overflow; the answer does not need them
    s = LinearSample(x=np.ones(3), y=np.array([1e308, -1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_exact_scalar_quantile(s, 0.5) == 1e308


def test_exact_quantile_scale_equivariance():
    rng = np.random.default_rng(12)
    x = rng.normal(1, 1, 40)
    y = rng.normal(0, 2, 40)
    s = LinearSample(x=x, y=y)
    s_scaled = LinearSample(x=x, y=3.5 * y)
    for tau in (0.3, 0.5, 0.8):
        th = fit_exact_scalar_quantile(s, tau)
        assert fit_exact_scalar_quantile(s_scaled, tau) == pytest.approx(
            3.5 * th, rel=1e-12)


# ---------------------------------------------------------------------------
# smoothed fit
# ---------------------------------------------------------------------------

def test_fit_smoothed_median_tracks_exact():
    s = LinearSample(x=np.ones(3), y=np.array([1.0, 2.0, 3.0]))
    res = fit_smoothed(s, check_loss(0.5), BUMP, 50.0)
    assert res.converged
    assert res.theta_hat[0] == pytest.approx(2.0, abs=1.0 / 50)


def test_fit_smoothed_zero_errors_recover_truth():
    rng = np.random.default_rng(13)
    x = rng.normal(1, 1, 50)
    s = LinearSample(x=x, y=x * 1.0, e=np.zeros(50), theta0=np.array([1.0]))
    for loss, kern in [(absolute_loss(), BUMP), (huber_loss(1.0), BUMP),
                       (check_loss(0.5), GAUSS)]:
        res = fit_smoothed(s, loss, kern, 10.0)
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(1.0, abs=1e-8)


def test_fit_smoothed_huge_huber_is_least_squares():
    rng = np.random.default_rng(14)
    x = rng.normal(1, 1, (60, 2))
    y = x @ np.array([0.5, -1.0]) + 0.01 * rng.standard_normal(60)
    res = fit_smoothed(LinearSample(x=x, y=y), huber_loss(1e6), BUMP, 5.0)
    ols, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.max(np.abs(res.theta_hat - ols)) < 1e-6


def test_fit_smoothed_rejects_ramp_loss():
    s = _sim(0, 30)
    with pytest.raises(NonCoerciveLossError):
        fit_smoothed(s, relu_loss(), BUMP, 5.0)


def test_fit_smoothed_rejects_singular_design():
    x = np.ones((10, 2))           # duplicated column
    s = LinearSample(x=x, y=np.arange(10.0))
    with pytest.raises(SingularDesignError):
        fit_smoothed(s, check_loss(0.5), BUMP, 5.0)


def test_singular_design_raises_on_every_call_in_order():
    # the cached least-squares start keeps the design check: each call
    # raises, and the checks run non-coercive loss, design, scale
    singular = LinearSample(x=np.ones((10, 2)), y=np.arange(10.0))
    for loss, kern in [(check_loss(0.5), BUMP), (check_loss(0.5), BUMP),
                       (huber_loss(1.0), GAUSS), (absolute_loss(), BUMP)]:
        with pytest.raises(SingularDesignError):
            fit_smoothed(singular, loss, kern, 5.0)
    with pytest.raises(NonCoerciveLossError):
        fit_smoothed(singular, relu_loss(), BUMP, -1.0)
    for m in (-1.0, np.nan):
        with pytest.raises(SingularDesignError):
            fit_smoothed(singular, check_loss(0.5), BUMP, m)
        with pytest.raises(InvalidScaleError):
            fit_smoothed(_sim(6, 30), check_loss(0.5), BUMP, m)


def test_start_from_exact_fit_lands_on_the_least_squares_fit():
    # the Monte Carlo start: the same minimizer, to the solver's tolerance
    config = ExperimentConfig(n=100, replications=50, tau=0.3,
                              error_dist="t4", m_list=(5, 10, 15),
                              h_list=(0.1, 0.5, 0.9), base_seed=1900)
    loss = check_loss(config.tau)
    for j in range(config.replications):
        s = generate_sample(config, j)
        start = np.array([fit_exact_scalar_quantile(s, config.tau)])
        pairs = [(fit_smoothed(s, loss, BUMP, m, start=start),
                  fit_smoothed(s, loss, BUMP, m)) for m in config.m_list]
        pairs += [(fit_convolution_baseline(s, config.tau, h, start=start),
                   fit_convolution_baseline(s, config.tau, h))
                  for h in config.h_list]
        for near, default in pairs:
            assert near.converged and default.converged
            assert abs(near.theta_hat[0] - default.theta_hat[0]) <= 1e-7


def test_default_start_is_least_squares():
    s = _sim(10, 100, errors="t4")
    ls = s._least_squares[0]
    for loss, kern, m in [(check_loss(0.3), BUMP, 15.0),
                          (check_loss(0.3), GAUSS, 2.0),
                          (huber_loss(1.0), BUMP, 10.0)]:
        assert _same_fit(fit_smoothed(s, loss, kern, m, start=ls),
                         fit_smoothed(s, loss, kern, m))
    assert _same_fit(fit_convolution_baseline(s, 0.3, 0.5, start=ls),
                     fit_convolution_baseline(s, 0.3, 0.5))


def test_invalid_start_raises_after_the_design_check():
    s = _sim(11, 30)
    # the last four are not convertible to floats at all
    for bad in ([1.0, 2.0], np.array([[1.0]]), 1.0, [np.nan], [np.inf],
                "abc", [[1.0], [2.0, 3.0]], {"a": 1}, [1j]):
        with pytest.raises(InvalidStartError):
            fit_smoothed(s, check_loss(0.5), BUMP, 5.0, start=bad)
        with pytest.raises(InvalidStartError):
            fit_convolution_baseline(s, 0.5, 0.5, start=bad)
    singular = LinearSample(x=np.ones((10, 2)), y=np.arange(10.0))
    for bad in ([np.nan], "abc"):
        with pytest.raises(SingularDesignError):
            fit_smoothed(singular, check_loss(0.5), BUMP, 5.0, start=bad)


def test_fit_is_repeatable_across_calls_copies_and_smoothers(monkeypatch):
    s = _sim(7, 100, errors="t4")
    copy = LinearSample(x=s.x.copy(), y=s.y.copy(), e=s.e.copy(),
                        theta0=s.theta0.copy())
    cases = [(check_loss(0.3), BUMP, 15.0), (check_loss(0.3), GAUSS, 2.0),
             (huber_loss(1.0), BUMP, 10.0)]
    cached = [fit_smoothed(s, *case) for case in cases]
    for case, first in zip(cases, cached):
        assert _same_fit(fit_smoothed(s, *case), first)
        assert _same_fit(fit_smoothed(copy, *case), first)
    loss, kern, _ = cases[0]
    assert smoothed_loss(loss, kern, 5) is smoothed_loss(loss, kern, 5.0)
    # a freshly built smoother per fit gives the same fits
    monkeypatch.setattr(estimator, "smoothed_loss", PartialMomentSmoother)
    for case, first in zip(cases, cached):
        assert _same_fit(fit_smoothed(_sim(7, 100, errors="t4"), *case), first)


def test_backtracks_count_rejected_trials(monkeypatch):
    # every objective evaluation after the first is an accepted step or a
    # rejected trial, and each accepted step leads to one more pass
    counts = {"value": 0, "pair": 0}
    value, pair = PartialMomentSmoother.value, PartialMomentSmoother.curvature_pair

    def counted_value(self, u):
        counts["value"] += 1
        return value(self, u)

    def counted_pair(self, u):
        counts["pair"] += 1
        return pair(self, u)

    monkeypatch.setattr(PartialMomentSmoother, "value", counted_value)
    monkeypatch.setattr(PartialMomentSmoother, "curvature_pair", counted_pair)
    s = _sim(8, 100, errors="t4")
    res = fit_smoothed(s, check_loss(0.3), BUMP, 15.0)
    assert res.converged and res.backtracks > 0 and res.fallbacks == 0
    accepted = counts["pair"] - 1
    assert res.backtracks == counts["value"] - 1 - accepted


def test_fallbacks_count_steepest_descent_passes(monkeypatch):
    # a solve that returns an ascent direction forces every pass that
    # takes a step onto steepest descent
    monkeypatch.setattr(estimator, "_solve", lambda a, b: -b)
    monkeypatch.setattr(estimator, "_MAX_ITER", 5)
    res = fit_smoothed(_sim(9, 60), check_loss(0.5), GAUSS, 2.0)
    assert res.iterations == 5
    assert res.fallbacks == res.iterations


def test_solve_is_numpy_solve_bit_for_bit():
    rng = np.random.default_rng(22)
    for d in (1, 2, 3, 4):
        for _ in range(200):
            a = rng.standard_normal((50, d))
            hess = a.T @ (a * rng.random(50)[:, None])
            b = rng.standard_normal(d)
            assert estimator._solve(hess, b).tobytes() == np.linalg.solve(hess, b).tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        estimator._solve(np.array([[0.0]]), np.array([1.0]))


def test_scale_overflowing_the_hessian_is_refused():
    # at m = 1e308 the check loss's curvature m*phi(0) times n * max x^2
    # overflows, so the Hessian would be inf
    s = _sim(7, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kern in (BUMP, GAUSS):
            with pytest.raises(InvalidScaleError, match="Hessian"):
                fit_smoothed(s, check_loss(0.3), kern, 1e308)
            # at m = 1e300 the bound holds: the fit runs, quietly
            assert isinstance(fit_smoothed(s, check_loss(0.3), kern, 1e300),
                              FitResult)


def test_fit_smoothed_non_convergence_is_reported_not_raised(monkeypatch):
    s = _sim(1, 100)
    monkeypatch.setattr(estimator, "_MAX_ITER", 0)
    res = fit_smoothed(s, check_loss(0.3), BUMP, 5.0)
    assert isinstance(res, FitResult)
    assert not res.converged
    assert res.gradient_norm >= 1e-9 * s.n


def test_fit_result_convergence_invariant():
    s = _sim(2, 100)
    res = fit_smoothed(s, check_loss(0.3), BUMP, 10.0)
    assert res.converged
    assert res.gradient_norm < estimator._GRAD_TOL * s.n


def test_fit_smoothed_within_kink_window_of_exact():
    # exactness outside the kink window pins the smoothed minimizer to
    # within 2/m of the exact quantile fit
    count = 0
    for seed in range(1000):
        s = _sim(100 + seed, 60)
        tau = 0.3
        exact = fit_exact_scalar_quantile(s, tau)
        for m in (5.0, 10.0, 15.0):
            res = fit_smoothed(s, check_loss(tau), BUMP, m)
            assert res.converged
            assert abs(res.theta_hat[0] - exact) <= 2.0 / m + 1e-6
            count += 1
    assert count == 3000


def test_fit_smoothed_converges_everywhere():
    # damped Newton on the convex surrogate never fails across sizes
    total = 0
    for n in (50, 100, 200):
        for seed in range(120):
            s = _sim(7000 + 13 * n + seed, n)
            res = fit_smoothed(s, check_loss(0.3), BUMP, 10.0)
            total += res.converged
    assert total == 360


# ---------------------------------------------------------------------------
# convolution baseline
# ---------------------------------------------------------------------------

def test_baseline_is_gaussian_fit_at_inverse_bandwidth():
    s = _sim(3, 80)
    rh = fit_convolution_baseline(s, 0.3, 0.1)
    rm = fit_smoothed(s, check_loss(0.3), GAUSS, 10.0)
    assert np.array_equal(rh.theta_hat, rm.theta_hat)
    assert rh.iterations == rm.iterations


def test_baseline_zero_errors():
    rng = np.random.default_rng(15)
    x = rng.normal(1, 1, 50)
    s = LinearSample(x=x, y=x * 1.0, e=np.zeros(50), theta0=np.array([1.0]))
    res = fit_convolution_baseline(s, 0.5, 0.5)
    assert res.theta_hat[0] == pytest.approx(1.0, abs=1e-6)


def test_baseline_bandwidth_validation():
    s = _sim(4, 30)
    for h in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(InvalidBandwidthError):
            fit_convolution_baseline(s, 0.5, h)


def test_baseline_consistency_sanity():
    s = _sim(5, 500)
    res = fit_convolution_baseline(s, 0.5, 0.5)
    assert res.converged
    assert abs(res.theta_hat[0] - 1.0) < 0.2
    exact = fit_exact_scalar_quantile(s, 0.5)
    assert abs(res.theta_hat[0] - exact) < 0.2
