"""Linear-model fitting with smoothed losses.

Three fitters: damped Newton on the smoothed empirical loss, an exact
scalar quantile solver (breakpoint scan over the piecewise-linear
objective, used as the oracle the smoothed fits are judged against),
and the convolution-smoothed quantile baseline, which is the smoothed
fit with a Gaussian kernel at scale 1/h.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateRegressorError, IncompleteSampleError,
                     InvalidBandwidthError, InvalidStartError,
                     NonCoerciveLossError, NonFiniteSampleError,
                     SingularDesignError, UnsupportedDimensionError)
from .kernels import MollifierKernel, gaussian_kernel
from .losses import LossSpec, check_loss
from .mollify import smoothed_loss

_MAX_ITER = 200
_GRAD_TOL = 1e-9           # per observation, on the gradient's max norm
_RIDGE = 1e-10
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60


def _freeze(sample: LinearSample, name: str, value) -> None:
    """Set a sample field to a read-only float copy of value."""
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(sample, name, arr)


@dataclass(frozen=True, eq=False)
class LinearSample:
    """Observations (x, y), optionally with the generating errors/truth.

    The arrays are read-only copies of the caller's, so that the
    least-squares start, computed once per sample, cannot go stale;
    every entry must be finite.  Samples compare and hash by identity.
    """

    x: np.ndarray                      # (n, d)
    y: np.ndarray                      # (n,)
    e: np.ndarray | None = None        # (n,) true errors
    theta0: np.ndarray | None = None   # (d,) true parameters

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.shape[0] == 1 and np.asarray(self.y).size != 1:
            x = x.T
        _freeze(self, "x", x)
        for name in ("y", "e", "theta0"):
            if getattr(self, name) is not None:
                _freeze(self, name, np.ravel(getattr(self, name)))
        for name in ("x", "y", "e", "theta0"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise NonFiniteSampleError(f"{name} holds a non-finite value")
        y = self.y
        n, d = self.x.shape
        if y.size != n:
            raise ValueError(f"x has {n} rows but y has {y.size} entries")
        if not n >= d >= 1:
            raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
        if self.e is not None and self.e.size != n:
            raise ValueError("e must have one entry per observation")
        if self.theta0 is not None and self.theta0.size != d:
            raise ValueError("theta0 must have one entry per regressor")
        if self.e is not None and self.theta0 is not None:
            if not np.allclose(y, self.x @ self.theta0 + self.e,
                               rtol=0.0, atol=1e-9):
                raise ValueError("y does not equal x @ theta0 + e")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def require_truth(self):
        if self.e is None or self.theta0 is None:
            raise IncompleteSampleError("sample lacks true errors/parameters")

    @cached_property
    def _least_squares(self) -> tuple[np.ndarray, bool]:
        """(least-squares coefficients, full rank?), once per sample: the
        solve's singular values double as the design check."""
        theta, _, _, sv = np.linalg.lstsq(self.x, self.y, rcond=None)
        theta.setflags(write=False)
        return theta, not (sv[-1] <= sv[0] * 1e-12 or sv[-1] == 0.0)


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gradient_norm: float
    backtracks: int            # trial steps the Armijo test rejected
    fallbacks: int             # passes that fell back to steepest descent


def fit_smoothed(sample: LinearSample, loss: LossSpec, kernel: MollifierKernel,
                 m: float, *, start=None) -> FitResult:
    """Minimize sum_t rho_m(y_t - x_t' theta) by damped Newton.

    Starts from `start`, a finite vector of d entries, or by default
    from least squares (computed once per sample); a start near the
    answer, such as the exact quantile fit, saves Newton passes and
    lands on the same minimizer to the gradient tolerance.  Hessian gets
    a tiny ridge, _RIDGE, because the bump-kernel curvature vanishes on
    plateaus; Armijo backtracking keeps every step a descent step.
    Converged means the gradient's max norm fell below _GRAD_TOL * n
    within _MAX_ITER Newton steps.  Non-convergence is reported in the
    result, not raised.
    """
    if not loss.coercive:
        raise NonCoerciveLossError(f"{loss.label} has no coercive objective")
    x, y = sample.x, sample.y
    theta, full_rank = sample._least_squares
    if not full_rank:
        raise SingularDesignError("design matrix is rank deficient")
    if start is not None:
        try:
            theta = np.array(start, dtype=float)
        except (TypeError, ValueError):
            theta = None                # not convertible to floats
        if (theta is None or theta.shape != (sample.d,)
                or not np.isfinite(theta).all()):
            raise InvalidStartError(f"start must be a finite vector of "
                                    f"{sample.d} entries, got {start!r}")
    smoother = smoothed_loss(loss, kernel, float(m))
    n, d = x.shape
    ridge = _RIDGE * np.eye(d)

    resid = y - x @ theta
    obj = float(smoother.value(resid).sum())
    tol = _GRAD_TOL * n
    # near the optimum the objective is flat at double precision, so the
    # Armijo test carries a rounding allowance proportional to its size
    noise = 64.0 * np.finfo(float).eps * (1.0 + abs(obj))
    converged = False
    it = backtracks = fallbacks = 0
    while True:
        psi, weights = smoother.curvature_pair(resid)
        grad = -(x.T @ psi)
        gnorm = float(np.abs(grad).max())
        if gnorm < tol:
            converged = True
            break
        if it >= _MAX_ITER:
            break
        it += 1
        hess = x.T @ (x * weights[:, None]) + ridge
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        if slope >= 0.0:           # numerical breakdown: fall back to steepest descent
            step = -grad
            slope = float(grad @ step)
            fallbacks += 1
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = theta + t * step
            trial_resid = y - x @ trial
            trial_obj = float(smoother.value(trial_resid).sum())
            if trial_obj <= obj + _ARMIJO * t * slope + noise:
                theta, resid, obj = trial, trial_resid, trial_obj
                accepted = True
                break
            t *= 0.5
            backtracks += 1
        if not accepted:
            break                  # cannot make progress at double precision
    return FitResult(theta_hat=theta, objective=obj, iterations=it,
                     converged=converged, gradient_norm=gnorm,
                     backtracks=backtracks, fallbacks=fallbacks)


def fit_exact_scalar_quantile(sample: LinearSample, tau: float) -> float:
    """Exact minimizer of the check-loss objective for a single regressor.

    The objective is convex piecewise linear in theta with breakpoints
    y_i/x_i; the minimizer is the first breakpoint (in increasing
    order) where the one-sided derivative turns nonnegative.  Ties
    return the smallest such breakpoint.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if sample.d != 1:
        raise UnsupportedDimensionError("exact solver needs d = 1")
    x = sample.x[:, 0]
    if np.any(x == 0.0):
        raise DegenerateRegressorError("every x_i must be nonzero")
    y = sample.y
    b = y / x
    absx = np.abs(x)
    # slope of each term to the right/left of its breakpoint
    right = np.where(x > 0, (1.0 - tau) * absx, tau * absx)
    left = np.where(x > 0, -tau * absx, -(1.0 - tau) * absx)
    order = np.argsort(b, kind="stable")
    b, right, left = b[order], right[order], left[order]
    # D+(theta) at theta = b_(k): terms with breakpoint <= theta contribute
    # their right slope, the rest their left slope
    tail_left = np.concatenate([np.cumsum(left[::-1])[::-1], [0.0]])
    dplus = np.cumsum(right) + tail_left[1:]
    # ties: evaluate the derivative only at the last of each equal run.
    # D+ at the last breakpoint is the sum of the right slopes, so >= 0:
    # it is always a candidate, and the first candidate >= 0 is the answer
    unique_last = np.nonzero(np.append(np.diff(b) > 0, True))[0]
    return float(b[unique_last[np.argmax(dplus[unique_last] >= 0.0)]])


def fit_convolution_baseline(sample: LinearSample, tau: float, h: float, *,
                             start=None) -> FitResult:
    """Gaussian-kernel smoothed quantile fit at bandwidth h (scale 1/h),
    from `start` as in `fit_smoothed`."""
    if not 0.0 < h < 1.0:
        raise InvalidBandwidthError(f"bandwidth must lie in (0, 1), got {h}")
    return fit_smoothed(sample, check_loss(tau), gaussian_kernel(), 1.0 / h,
                        start=start)
