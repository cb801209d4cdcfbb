"""Output checks, computed apart from the program under test.

Every reference here is derived from scipy or from formulas written in
this file, never from a stored copy of earlier output.  Each check returns
a list of problem descriptions; an empty list means the outputs hold.
"""
from __future__ import annotations

from functools import lru_cache
from math import exp, pi, sqrt

import numpy as np
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from mollikit import mollify, montecarlo
from mollikit.kernels import parse_kernel
from mollikit.losses import parse_loss

THETA0 = 1.0
_SQRT2PI = sqrt(2.0 * pi)
GAUSSIAN_MU1 = sqrt(2.0 / pi)
# independent descriptions of the swept losses: Lipschitz constant, kinks
LOSSES = {
    "abs": (1.0, (0.0,)),
    "check:0.3": (0.7, (0.0,)),
    "huber:1": (1.0, (-1.0, 1.0)),
    "relu": (1.0, (0.0,)),
}


def loss_value(loss: str, u: np.ndarray) -> np.ndarray:
    if loss == "abs":
        return np.abs(u)
    if loss == "check:0.3":
        return np.where(u >= 0.0, 0.3 * u, -0.7 * u)
    if loss == "huber:1":
        return np.where(np.abs(u) <= 1.0, 0.5 * u * u, np.abs(u) - 0.5)
    return np.maximum(u, 0.0)


@lru_cache(maxsize=1)
def bump_mu1() -> float:
    """int |v| phi(v) dv for the normalised bump exp(-1/(1-v^2))."""
    def bump(v):
        return exp(-1.0 / (1.0 - v * v)) if abs(v) < 1.0 else 0.0

    mass = integrate.quad(bump, -1.0, 1.0, epsabs=1e-15, epsrel=1e-13)[0]
    first = integrate.quad(lambda v: v * bump(v), 0.0, 1.0,
                           epsabs=1e-15, epsrel=1e-13)[0]
    return 2.0 * first / mass


def _mu1(kernel: str) -> float:
    return bump_mu1() if kernel == "bump" else GAUSSIAN_MU1


def _close(got: float, want: float, rel: float, floor: float = 1.0) -> bool:
    return abs(got - want) <= rel * max(floor, abs(want))


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def draws(config, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Regressor and error of replication j, drawn as the documented
    seeding contract prescribes: x ~ 1 + N(0, 1) first, then the errors,
    t4 errors as scipy's t(4) quantile of uniforms; shifted so that the
    tau-quantile of the error is zero."""
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(j,))
    rng = np.random.default_rng(seq)
    x = 1.0 + rng.standard_normal(config.n)
    if config.error_dist == "t4":
        eps = stats.t.ppf(rng.random(config.n), 4)
        shift = stats.t.ppf(config.tau, 4)
    else:
        eps = rng.standard_normal(config.n)
        shift = ndtri(config.tau)
    return x, eps - shift


def _error_density_at_zero(config) -> float:
    if config.error_dist == "t4":
        return float(stats.t.pdf(stats.t.ppf(config.tau, 4), 4))
    return float(np.exp(-0.5 * ndtri(config.tau) ** 2) / _SQRT2PI)


def brute_force_quantile(x, y, tau):
    """Brute-force minimiser of F(theta) = sum rho_tau(y - x theta) over
    every breakpoint y_i / x_i; returns (argmin, min F, F)."""
    def objective(theta):
        r = y - x * theta
        return float(np.sum(r * (tau - (r < 0.0))))

    b = np.sort(y / x)
    r = y[None, :] - b[:, None] * x[None, :]
    values = np.sum(r * (tau - (r < 0.0)), axis=1)
    k = int(np.argmin(values))
    return float(b[k]), float(values[k]), objective


def _bound_problems(label, objective, f_min, theta, n, tau, mu1, m):
    """A fit of rho_m satisfies F(theta) - min F <= n L mu1 / m, because
    rho <= rho_m <= rho + L mu1 / m."""
    excess = objective(theta) - f_min
    bound = n * max(tau, 1.0 - tau) * mu1 / m
    if not excess <= bound:
        return [f"{label}: F(theta) - min F = {excess:.3e} exceeds "
                f"n L mu1 / m = {bound:.3e}"]
    return []


def _rms(values) -> float:
    arr = np.asarray(values, dtype=float) - THETA0
    return float(np.sqrt(np.mean(arr * arr)))


def check_rmse(config, result) -> list[str]:
    """Exact fit against brute force, every fit against the objective
    bound, and the RMSEs recomputed from `records`."""
    problems = []
    tau, n = config.tau, config.n
    good = [r for r in result.records if not r["failed"]]
    for rec in good:
        tag = f"seed {config.base_seed} rep {rec['replication']}"
        x, e = draws(config, rec["replication"])
        b_star, f_min, objective = brute_force_quantile(x, x * THETA0 + e, tau)
        if not _close(rec["theta_tau"], b_star, 1e-7):
            problems.append(f"{tag}: exact fit {rec['theta_tau']!r} is not "
                            f"the brute-force argmin {b_star!r}")
        for key, theta in rec["theta_m"].items():
            problems += _bound_problems(f"{tag} m={key}", objective, f_min,
                                        theta, n, tau, _mu1(config.kernel),
                                        float(key))
        for key, theta in rec["theta_h"].items():
            problems += _bound_problems(f"{tag} h={key}", objective, f_min,
                                        theta, n, tau, GAUSSIAN_MU1,
                                        1.0 / float(key))
    want = {"rmse_tau": _rms([r["theta_tau"] for r in good])}
    for key in result.rmse_m:
        want[f"rmse_m {key}"] = _rms([r["theta_m"][key] for r in good])
    for key in result.rmse_h:
        want[f"rmse_h {key}"] = _rms([r["theta_h"][key] for r in good])
    got = {"rmse_tau": result.rmse_tau}
    got.update({f"rmse_m {k}": v for k, v in result.rmse_m.items()})
    got.update({f"rmse_h {k}": v for k, v in result.rmse_h.items()})
    for name, value in want.items():
        if not _close(got.get(name, np.nan), value, 1e-12, 0.0):
            problems.append(f"seed {config.base_seed}: {name} = "
                            f"{got.get(name)!r}, records give {value!r}")
    return problems


def check_mad(config, result) -> list[str]:
    """beta_Q in closed form, gap_m = |beta_m - beta_Q|, the objective
    bound for every fit, and MAD recomputed from `records`."""
    problems = []
    tau, n = config.tau, config.n
    density0 = _error_density_at_zero(config)
    good = [r for r in result.records if not r["failed"]]
    for rec in good:
        tag = f"seed {config.base_seed} rep {rec['replication']}"
        x, e = draws(config, rec["replication"])
        psi = tau - (e < 0.0)
        beta_q = (psi @ x / sqrt(n)) / (density0 * (x @ x) / n)
        if not _close(rec["beta_q"], beta_q, 1e-12):
            problems.append(f"{tag}: beta_Q {rec['beta_q']!r}, closed form "
                            f"gives {beta_q!r}")
        _, f_min, objective = brute_force_quantile(x, x * THETA0 + e, tau)
        for key, beta_m in rec["beta_m"].items():
            gap = abs(beta_m - rec["beta_q"])
            if not _close(rec["gap_m"][key], gap, 1e-14):
                problems.append(f"{tag} m={key}: gap_m {rec['gap_m'][key]!r} "
                                f"is not |beta_m - beta_Q| = {gap!r}")
            problems += _bound_problems(f"{tag} m={key}", objective, f_min,
                                        THETA0 + beta_m / sqrt(n), n, tau,
                                        _mu1(config.kernel), float(key))
    for key, value in result.mad_m.items():
        want = float(np.mean([r["gap_m"][key] for r in good]))
        if not _close(value, want, 1e-12, 0.0):
            problems.append(f"seed {config.base_seed}: mad_m {key} = "
                            f"{value!r}, records give {want!r}")
    return problems


def check_generated_samples(config, replications) -> list[str]:
    """The program's samples equal the independent draws: x exactly, and
    the errors (t4 by bisection in the program) to 1e-8."""
    problems = []
    for j in replications:
        sample = montecarlo.generate_sample(config, j)
        x, e = draws(config, j)
        if not np.array_equal(sample.x[:, 0], x):
            problems.append(f"seed {config.base_seed} rep {j}: x differs")
        gap = float(np.max(np.abs(sample.e - e) / np.maximum(1.0, np.abs(e))))
        if not gap <= 1e-8:
            problems.append(f"seed {config.base_seed} rep {j}: errors differ "
                            f"from the scipy quantiles by {gap:.3e}")
        if not np.allclose(sample.y, x * THETA0 + sample.e, rtol=0.0,
                           atol=1e-12):
            problems.append(f"seed {config.base_seed} rep {j}: y != x + e")
    return problems


def check_thread_invariance(one_thread, two_threads) -> list[str]:
    if one_thread != two_threads:
        return ["records differ between threads=1 and threads=2"]
    return []


# ---------------------------------------------------------------------------
# rate_sweep
# ---------------------------------------------------------------------------

def gaussian_smoothed(loss: str, m: float, u: np.ndarray) -> np.ndarray:
    """Gaussian-smoothed abs / check / relu in closed form."""
    t = m * u
    phi = np.exp(-0.5 * t * t) / _SQRT2PI
    smooth_abs = u * (2.0 * ndtr(t) - 1.0) + 2.0 * phi / m
    if loss == "abs":
        return smooth_abs
    if loss == "check:0.3":
        return -0.2 * u + 0.5 * smooth_abs
    return u * ndtr(t) + phi / m


def gaussian_abs_gap(m: float) -> float:
    """E|rho_m'(e) - sign(e)| for e ~ N(0, 1): 4 int_0^inf Phi(-m e) phi(e)."""
    val, _ = integrate.quad(
        lambda e: ndtr(-m * e) * exp(-0.5 * e * e) / _SQRT2PI,
        0.0, np.inf, epsabs=1e-14, epsrel=1e-12)
    return 4.0 * val


class RateReference:
    """What one (loss, kernel, m) cell of the sweep must return."""

    def __init__(self, loss: str, kernel: str, m: float, grid: np.ndarray):
        self.label = f"{loss}/{kernel}/m={m:g}"
        lipschitz, kinks = LOSSES[loss]
        mu1 = _mu1(kernel)
        self.bound = lipschitz * mu1 / m
        self.sup = self.gap = None
        self.static_problems = []
        if kernel == "bump" and loss == "abs":
            self.sup = mu1 / m
        if kernel == "gaussian" and loss != "huber:1":
            self.sup = float(np.max(np.abs(gaussian_smoothed(loss, m, grid)
                                           - loss_value(loss, grid))))
            if loss in ("abs", "check:0.3"):
                self.gap = gaussian_abs_gap(m) * (1.0 if loss == "abs" else 0.5)
        if kernel == "bump":
            self.static_problems = self.exact_outside_band(
                loss, m, kinks, grid[::10])

    @staticmethod
    def band_points(loss: str, m: float, kinks, pts: np.ndarray) -> np.ndarray:
        """Points where the loss is linear on [u - 1/m, u + 1/m]."""
        far = np.min(np.abs(pts[:, None] - np.array(kinks)[None, :]), axis=1)
        keep = far >= 1.0 / m
        if loss == "huber:1":
            keep &= np.abs(pts) >= 1.0
        return pts[keep]

    @classmethod
    def exact_outside_band(cls, loss, m, kinks, pts, values=None) -> list[str]:
        """The bump-smoothed loss equals the loss away from the kinks."""
        pts = cls.band_points(loss, m, kinks, pts)
        if values is None:
            smoothed = mollify.smoothed_loss(parse_loss(loss),
                                             parse_kernel("bump"), m)
            values = mollify.smooth_value(smoothed, pts)
        worst = float(np.max(np.abs(values - loss_value(loss, pts))))
        if not worst <= 1e-10:
            return [f"bump-smoothed {loss} differs from the loss by "
                    f"{worst:.3e} outside kink +/- 1/{m:g}"]
        return []

    def check(self, sup: float, gap: float) -> list[str]:
        problems = list(self.static_problems)
        if not sup <= self.bound * (1.0 + 1e-9):
            problems.append(f"sup_error {sup!r} exceeds L mu1 / m = "
                            f"{self.bound!r}")
        if self.sup is not None and not _close(sup, self.sup, 1e-7, 0.0):
            problems.append(f"sup_error {sup!r}, expected {self.sup!r}")
        if self.gap is not None and not _close(gap, self.gap, 1e-9, 0.0):
            problems.append(f"expected_derivative_gap {gap!r}, quad gives "
                            f"{self.gap!r}")
        return problems


def check_repeatable(passes: list[dict]) -> list[str]:
    """Every pass returns the same value for a cell."""
    first = passes[0]
    return [f"{cell}: pass {i} gave {out[cell]!r}, pass 0 {first[cell]!r}"
            for i, out in enumerate(passes[1:], 1) for cell in first
            if out.get(cell) != first[cell]]
