"""Quadratic surrogate for the recentred empirical loss.

With the true errors known, the loss difference after the local
reparametrization beta = sqrt(n)*(theta - theta0) is

    shifted_loss(beta) = sum_t [rho(e_t - x_t' beta / sqrt(n)) - rho(e_t)]

and its quadratic surrogate is built from the score vector
S = sum_i psi(e_i) x_i / sqrt(n), the scaled Gram matrix
G = sum_i x_i x_i' / n and a curvature constant a = E[rho''(e)]:

    q(beta) = -S' beta + (a/2) beta' G beta,   minimized at (aG)^{-1} S.

The gap diagnostics probe how far the surrogate sits from the exact
recentred loss, pointwise and over a ball.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .errors import (IncompleteSampleError, InvalidCurvatureError,
                     SingularGramError)
from .estimator import LinearSample, fit_smoothed
from .kernels import MollifierKernel
from .losses import LossSpec, loss_subgradient, loss_value
from .mollify import smoothed_loss

# points in approximation_gap's probe set
_PROBES = 512


@dataclass(frozen=True)
class QuadraticApprox:
    score: np.ndarray      # (d,)
    gram: np.ndarray       # (d, d)
    a: float               # curvature constant, > 0


def tilde_L(sample: LinearSample, loss: LossSpec, beta) -> float | np.ndarray:
    """Recentred empirical loss (needs e and theta0): a float at one point
    of d entries, a (P,) array at the rows of a (P, d) array."""
    sample.require_truth()
    pts = np.atleast_2d(np.asarray(beta, dtype=float))
    shift = (sample.x @ pts.T) / sqrt(sample.n)            # (n, P)
    args = sample.e[:, None] - shift
    out = loss_value(loss, args).sum(axis=0) - loss_value(loss, sample.e).sum()
    return float(out[0]) if np.ndim(beta) < 2 else out


def build_quadratic(sample: LinearSample, loss: LossSpec,
                    a: float) -> QuadraticApprox:
    """Assemble the surrogate's score and Gram pieces.

    The curvature constant is supplied by the caller: analytic via
    losses.expected_curvature when the error density is known, or the
    plug-in curvature_plugin below.
    """
    if not a > 0:
        raise InvalidCurvatureError(f"curvature constant must be > 0, got {a}")
    if sample.e is None:
        raise IncompleteSampleError("sample lacks true errors")
    n = sample.n
    psi = loss_subgradient(loss, sample.e)
    score = (sample.x.T @ psi) / sqrt(n)
    gram = (sample.x.T @ sample.x) / n
    return QuadraticApprox(score=score, gram=gram, a=float(a))


def curvature_plugin(loss: LossSpec, kernel: MollifierKernel, m: float,
                     e: np.ndarray) -> float:
    """Plug-in curvature constant: mean of the smoothed second derivative."""
    smoother = smoothed_loss(loss, kernel, m)
    return float(np.mean(smoother.second_derivative(np.asarray(e, dtype=float))))


def q_value(q: QuadraticApprox, beta) -> float | np.ndarray:
    """Surrogate -S'beta + (a/2) beta'G beta: a float at one point of d
    entries, a (P,) array at the rows of a (P, d) array."""
    pts = np.atleast_2d(np.asarray(beta, dtype=float))
    out = -pts @ q.score + 0.5 * q.a * np.einsum("pi,ij,pj->p", pts, q.gram, pts)
    return float(out[0]) if np.ndim(beta) < 2 else out


def beta_Q(q: QuadraticApprox) -> np.ndarray:
    """Unique minimizer of the surrogate: (a * gram)^{-1} score."""
    eig = np.linalg.eigvalsh(q.gram)
    if eig[0] <= 1e-12 * max(1.0, eig[-1]):
        raise SingularGramError("gram matrix is singular")
    return np.linalg.solve(q.a * q.gram, q.score)


def probe_ball(d: int, radius: float, probes: int) -> np.ndarray:
    """Deterministic probe set in the ball: 0, then evenly spaced radii
    out to `radius` along each of the 2d signed coordinate axes."""
    dirs = np.vstack([np.eye(d), -np.eye(d)])
    n_rad = max(1, (probes - 1) // len(dirs))
    radii = radius * np.arange(1, n_rad + 1) / n_rad
    pts = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, d)
    return np.vstack([np.zeros((1, d)), pts])[:probes]


def approximation_gap(sample: LinearSample, loss: LossSpec, a: float,
                      radius: float) -> float:
    """max over the probe points of |recentred loss - surrogate| in the ball."""
    pts = probe_ball(sample.d, radius, _PROBES)
    gap = tilde_L(sample, loss, pts) - q_value(build_quadratic(sample, loss, a), pts)
    return float(np.max(np.abs(gap)))


def beta_gap(sample: LinearSample, theta_hat: np.ndarray,
             beta_q: np.ndarray) -> tuple[np.ndarray, float]:
    """(beta_m, |beta_m - beta_q|): a fit on the surrogate's scale,
    beta_m = sqrt(n)*(theta_hat - theta0), and its distance to the
    surrogate minimizer; the summand averaged by the MAD tables."""
    sample.require_truth()
    beta_m = sqrt(sample.n) * (theta_hat - sample.theta0)
    return beta_m, float(np.linalg.norm(beta_m - beta_q))


def minimizer_gap(sample: LinearSample, loss: LossSpec, kernel: MollifierKernel,
                  m: float, a: float) -> float:
    """beta_gap's distance for the smoothed fit at scale m."""
    sample.require_truth()
    fit = fit_smoothed(sample, loss, kernel, m)
    return beta_gap(sample, fit.theta_hat, beta_Q(build_quadratic(sample, loss, a)))[1]


def loglog_scale(n: int) -> float:
    """The comparison scale n^{-1/4} * log(log(n)); needs n >= 16 so the
    inner logarithm stays above one."""
    if n < 16:
        raise ValueError("n must be at least 16")
    return n ** -0.25 * log(log(n))
