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

from .distributions import normal_quantile
from .errors import (IncompleteSampleError, InvalidCurvatureError,
                     SingularGramError)
from .estimator import LinearSample, fit_smoothed
from .kernels import MollifierKernel
from .losses import LossSpec, loss_subgradient, loss_value
from .mollify import smoothed_loss


@dataclass(frozen=True)
class QuadraticApprox:
    score: np.ndarray      # (d,)
    gram: np.ndarray       # (d, d)
    a: float               # curvature constant, > 0


def tilde_L(sample: LinearSample, loss: LossSpec, beta) -> float:
    """Recentred empirical loss at beta (needs e and theta0)."""
    sample.require_truth()
    b = np.asarray(beta, dtype=float).reshape(-1, 1)
    return float(_tilde_L_probes(sample, loss, b.T)[0])


def _tilde_L_probes(sample: LinearSample, loss: LossSpec,
                    betas: np.ndarray) -> np.ndarray:
    """Recentred loss at each row of betas, shape (P, d) -> (P,)."""
    shift = (sample.x @ betas.T) / sqrt(sample.n)          # (n, P)
    args = sample.e[:, None] - shift
    base = loss_value(loss, sample.e).sum()
    return loss_value(loss, args).sum(axis=0) - base


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


def q_value(q: QuadraticApprox, beta) -> float:
    b = np.asarray(beta, dtype=float).ravel()
    return float(-q.score @ b + 0.5 * q.a * b @ q.gram @ b)


def beta_Q(q: QuadraticApprox) -> np.ndarray:
    """Unique minimizer of the surrogate: (a * gram)^{-1} score."""
    eig = np.linalg.eigvalsh(q.gram)
    if eig[0] <= 1e-12 * max(1.0, eig[-1]):
        raise SingularGramError("gram matrix is singular")
    return np.linalg.solve(q.a * q.gram, q.score)


def _probe_directions(d: int, count: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    # scipy.stats is slow to import and only needed here, for d > 1
    from scipy.stats import qmc
    sampler = qmc.Halton(d=d, scramble=False)
    pts = sampler.random(count)
    z = normal_quantile(np.clip(pts, 1e-12, 1 - 1e-12).ravel()).reshape(pts.shape)
    # no row is 0: a base-3 radical inverse is never 1/2
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def probe_ball(d: int, radius: float, probes: int) -> np.ndarray:
    """Deterministic low-discrepancy probe set in the ball, 0 included."""
    dirs = _probe_directions(d, max(2, 2 * d))
    n_rad = max(1, (probes - 1) // len(dirs))
    radii = radius * np.arange(1, n_rad + 1) / n_rad
    pts = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, d)
    return np.vstack([np.zeros((1, d)), pts])[:probes]


def approximation_gap(sample: LinearSample, loss: LossSpec, a: float,
                      radius: float, probes: int = 512) -> float:
    """max over probe points of |recentred loss - surrogate| in the ball."""
    sample.require_truth()
    q = build_quadratic(sample, loss, a)
    pts = probe_ball(sample.d, radius, probes)
    exact = _tilde_L_probes(sample, loss, pts)
    quad = -pts @ q.score + 0.5 * q.a * np.einsum("pi,ij,pj->p", pts, q.gram, pts)
    return float(np.max(np.abs(exact - quad)))


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
