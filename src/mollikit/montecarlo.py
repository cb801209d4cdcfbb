"""Monte Carlo experiments for the smoothed quantile fits.

The data generating process is a scalar linear model y = x*theta0 + e
with x ~ N(1, 1), theta0 = 1 and e = eps - Q_eps(tau), so that the
tau-quantile of the error is zero.  Two experiment drivers are
provided: an RMSE comparison of the exact quantile fit against the
smoothed fits (bump kernel) and the Gaussian convolution baseline, and
a MAD experiment measuring the distance between the normalized
smoothed fit and the quadratic-surrogate minimizer.

Reproducibility contract: replication j draws from a dedicated stream
seeded by (base_seed, j), so results are identical for any worker
count and any replication order, and extending M preserves the prefix.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import sqrt
from typing import Callable

import numpy as np

from .distributions import (ErrorDensity, normal_quantile, standard_normal,
                            student_t4, t4_quantile)
from .errors import ExperimentError, MollikitError
from .estimator import (LinearSample, SolverOptions, fit_convolution_baseline,
                        fit_exact_scalar_quantile, fit_smoothed)
from .kernels import parse_kernel
from .losses import check_loss, expected_curvature
from .quadratic import beta_Q, build_quadratic

THETA0 = 1.0

# A replication that raises one of these is recorded as excluded; any
# other exception is a programming error and propagates.
_REPLICATION_ERRORS = (MollikitError, np.linalg.LinAlgError, FloatingPointError)

_DIST_ALIASES = {
    "normal01": "normal01", "normal": "normal01", "gaussian": "normal01",
    "t4": "t4", "student_t4": "t4",
}


def _dist_key(name: str) -> str:
    key = _DIST_ALIASES.get(name.lower())
    if key is None:
        raise ValueError(f"unknown error distribution {name!r}")
    return key


def error_density(name: str) -> ErrorDensity:
    return standard_normal() if _dist_key(name) == "normal01" else student_t4()


def error_quantile_shift(dist: str, tau: float) -> float:
    """Quantile Q_eps(tau) subtracted from the raw errors."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if _dist_key(dist) == "normal01":
        return float(normal_quantile(tau))
    return float(t4_quantile(tau))


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    replications: int                  # "M" in the config files
    tau: float
    error_dist: str
    m_list: tuple[float, ...]
    h_list: tuple[float, ...] = ()
    base_seed: int = 20260801
    kernel: str = "bump"

    def __post_init__(self):
        object.__setattr__(self, "m_list", tuple(float(m) for m in self.m_list))
        object.__setattr__(self, "h_list", tuple(float(h) for h in self.h_list))
        object.__setattr__(self, "error_dist", _dist_key(self.error_dist))
        if self.n < 10:
            raise ValueError("n must be at least 10")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        parse_kernel(self.kernel)
        if any(m <= 0 for m in self.m_list):
            raise ValueError("every m must be positive")
        if any(not 0.0 < h < 1.0 for h in self.h_list):
            raise ValueError("every h must lie in (0, 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = dict(data)
        if "M" in known and "replications" in known:
            raise ValueError("config gives both 'M' and 'replications'")
        reps = known.pop("M", known.pop("replications", None))
        if reps is None:
            raise ValueError("config needs an 'M' entry")
        allowed = {"n", "tau", "error_dist", "m_list", "h_list",
                   "base_seed", "kernel"}
        unknown = set(known) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(replications=int(reps), **known)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"n": self.n, "M": self.replications, "tau": self.tau,
                "error_dist": self.error_dist, "m_list": list(self.m_list),
                "h_list": list(self.h_list), "base_seed": self.base_seed,
                "kernel": self.kernel}


def generate_sample(config: ExperimentConfig, replication: int) -> LinearSample:
    """Draw replication j of the simulation design.

    x is drawn first, then the raw errors: normal errors straight from
    the generator, t4 errors by feeding uniforms through the closed-form
    quantile.
    """
    if not 0 <= replication < config.replications:
        raise ValueError("replication index out of range")
    seq = np.random.SeedSequence(entropy=config.base_seed,
                                 spawn_key=(replication,))
    rng = np.random.default_rng(seq)
    x = 1.0 + rng.standard_normal(config.n)
    if config.error_dist == "normal01":
        eps = rng.standard_normal(config.n)
    else:
        eps = t4_quantile(rng.random(config.n))
    e = eps - error_quantile_shift(config.error_dist, config.tau)
    theta0 = np.array([THETA0])
    xmat = x[:, None]
    return LinearSample(x=xmat, y=xmat @ theta0 + e, e=e, theta0=theta0)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    kind: str                           # "rmse" | "mad"
    rmse_tau: float | None = None
    rmse_m: dict[str, float] = field(default_factory=dict)
    rmse_h: dict[str, float] = field(default_factory=dict)
    mad_m: dict[str, float] = field(default_factory=dict)
    excluded: int = 0
    records: list[dict] = field(default_factory=list)

    def __post_init__(self):
        values = list(self.rmse_m.values()) + list(self.rmse_h.values()) \
            + list(self.mad_m.values())
        if self.rmse_tau is not None:
            values.append(self.rmse_tau)
        bad = [v for v in values if not (np.isfinite(v) and v >= 0.0)]
        if bad:
            raise ValueError(f"non-finite or negative summary values: {bad}")

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "kind": self.kind,
                "rmse_tau": self.rmse_tau, "rmse_m": self.rmse_m,
                "rmse_h": self.rmse_h, "mad_m": self.mad_m,
                "excluded": self.excluded, "records": self.records}


def _key(v: float) -> str:
    return f"{v:g}"


def _rmse_record(config: ExperimentConfig, j: int, solver: SolverOptions,
                 generator: Callable) -> dict:
    rec = {"replication": j, "seed": f"{config.base_seed}:{j}", "failed": False}
    try:
        sample = generator(config, j)
        loss = check_loss(config.tau)
        kern = parse_kernel(config.kernel)
        rec["theta_tau"] = fit_exact_scalar_quantile(sample, config.tau)
        theta_m, theta_h = {}, {}
        ok = True
        for m in config.m_list:
            fit = fit_smoothed(sample, loss, kern, m, solver)
            ok &= fit.converged
            theta_m[_key(m)] = float(fit.theta_hat[0])
        for h in config.h_list:
            fit = fit_convolution_baseline(sample, config.tau, h, solver)
            ok &= fit.converged
            theta_h[_key(h)] = float(fit.theta_hat[0])
        rec["theta_m"], rec["theta_h"] = theta_m, theta_h
        rec["failed"] = not ok
        if not ok:
            rec["error"] = "solver did not converge"
    except _REPLICATION_ERRORS as exc:
        rec["failed"] = True
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def _mad_record(config: ExperimentConfig, j: int, a: float,
                solver: SolverOptions, generator: Callable) -> dict:
    rec = {"replication": j, "seed": f"{config.base_seed}:{j}", "failed": False}
    try:
        sample = generator(config, j)
        loss = check_loss(config.tau)
        kern = parse_kernel(config.kernel)
        q = build_quadratic(sample, loss, a)
        bq = float(beta_Q(q)[0])
        rec["beta_q"] = bq
        beta_m, gaps = {}, {}
        ok = True
        for m in config.m_list:
            fit = fit_smoothed(sample, loss, kern, m, solver)
            ok &= fit.converged
            bm = sqrt(sample.n) * (float(fit.theta_hat[0]) - THETA0)
            beta_m[_key(m)] = bm
            gaps[_key(m)] = abs(bm - bq)
        rec["beta_m"], rec["gap_m"] = beta_m, gaps
        rec["failed"] = not ok
        if not ok:
            rec["error"] = "solver did not converge"
    except _REPLICATION_ERRORS as exc:
        rec["failed"] = True
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def _rmse_task(args):
    config, j, solver = args
    return _rmse_record(config, j, solver, generate_sample)


def _mad_task(args):
    config, j, a, solver = args
    return _mad_record(config, j, a, solver, generate_sample)


def _collect(task_fn, tasks, threads: int) -> list[dict]:
    if threads > 1:
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(task_fn, tasks, chunksize=chunk))
    return [task_fn(t) for t in tasks]


def _gate_exclusions(records: list[dict], total: int) -> int:
    excluded = sum(1 for r in records if r["failed"])
    if excluded > 0.01 * total:
        raise ExperimentError(
            f"{excluded}/{total} replications failed (> 1% exclusion gate)")
    return excluded


def run_rmse_experiment(config: ExperimentConfig, threads: int = 1,
                        generator: Callable | None = None,
                        solver: SolverOptions = SolverOptions(),
                        ) -> ExperimentResult:
    """RMSE of the exact, smoothed and convolution fits against theta0.

    `generator` is a test hook replacing the sample generator; when set
    the run is forced inline (hooks cannot cross process boundaries).
    """
    if generator is not None:
        records = [_rmse_record(config, j, solver, generator)
                   for j in range(config.replications)]
    else:
        tasks = [(config, j, solver) for j in range(config.replications)]
        records = _collect(_rmse_task, tasks, threads)
    excluded = _gate_exclusions(records, config.replications)
    good = [r for r in records if not r["failed"]]

    def rmse(values):
        arr = np.array(values) - THETA0
        return float(np.sqrt(np.mean(arr * arr)))

    return ExperimentResult(
        config=config, kind="rmse",
        rmse_tau=rmse([r["theta_tau"] for r in good]),
        rmse_m={_key(m): rmse([r["theta_m"][_key(m)] for r in good])
                for m in config.m_list},
        rmse_h={_key(h): rmse([r["theta_h"][_key(h)] for r in good])
                for h in config.h_list},
        excluded=excluded, records=records)


def analytic_curvature(config: ExperimentConfig) -> float:
    """Curvature constant a = f_e(0) for the median experiment."""
    return expected_curvature(check_loss(config.tau),
                              error_density(config.error_dist))


def run_mad_experiment(config: ExperimentConfig, threads: int = 1,
                       generator: Callable | None = None,
                       solver: SolverOptions = SolverOptions(),
                       ) -> ExperimentResult:
    """Mean absolute distance between the normalized smoothed fit and
    the quadratic-surrogate minimizer, per smoothing scale.

    Defined for the median experiment only (tau = 0.5), where the
    analytic curvature constant is the error density at zero.
    """
    if config.tau != 0.5:
        raise ValueError("the MAD experiment requires tau = 0.5")
    a = analytic_curvature(config)
    if generator is not None:
        records = [_mad_record(config, j, a, solver, generator)
                   for j in range(config.replications)]
    else:
        tasks = [(config, j, a, solver) for j in range(config.replications)]
        records = _collect(_mad_task, tasks, threads)
    excluded = _gate_exclusions(records, config.replications)
    good = [r for r in records if not r["failed"]]
    mad_m = {_key(m): float(np.mean([r["gap_m"][_key(m)] for r in good]))
             for m in config.m_list}
    return ExperimentResult(config=config, kind="mad", mad_m=mad_m,
                            excluded=excluded, records=records)


# ---------------------------------------------------------------------------
# table exports
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    """A float with 17 significant digits, enough to read back exactly."""
    return format(float(v), ".17g")


def _cell_label(config: ExperimentConfig) -> str:
    return f"{config.error_dist} tau={config.tau:g} n={config.n}"


def rmse_table_csv(results: list[ExperimentResult]) -> str:
    """Rows are estimator/parameter, one column per (dist, tau, n) cell."""
    rows: list[tuple[str, str]] = [("RMSE_tau", "")]
    seen = []
    for res in results:
        for m in res.config.m_list:
            if ("RMSE_m", f"m={_key(m)}") not in seen:
                seen.append(("RMSE_m", f"m={_key(m)}"))
        for h in res.config.h_list:
            if ("RMSE_h", f"h={_key(h)}") not in seen:
                seen.append(("RMSE_h", f"h={_key(h)}"))
    rows += sorted((r for r in seen if r[0] == "RMSE_m"), key=lambda r: float(r[1][2:]))
    rows += sorted((r for r in seen if r[0] == "RMSE_h"), key=lambda r: float(r[1][2:]))
    lines = ["estimator,param," + ",".join(_cell_label(r.config) for r in results)]
    for name, param in rows:
        cells = []
        for res in results:
            if name == "RMSE_tau":
                cells.append(_fmt(res.rmse_tau) if res.rmse_tau is not None else "")
            elif name == "RMSE_m":
                cells.append(_fmt(res.rmse_m[param[2:]])
                             if param[2:] in res.rmse_m else "")
            else:
                cells.append(_fmt(res.rmse_h[param[2:]])
                             if param[2:] in res.rmse_h else "")
        lines.append(f"{name},{param}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def mad_table_csv(results: list[ExperimentResult]) -> str:
    """Rows are (dist, m), one column per sample size."""
    ns = sorted({res.config.n for res in results})
    keys = []
    for res in results:
        for m in res.config.m_list:
            entry = (res.config.error_dist, _key(m))
            if entry not in keys:
                keys.append(entry)
    lines = ["dist,m," + ",".join(f"n={n}" for n in ns)]
    for dist, mkey in keys:
        cells = []
        for n in ns:
            hit = ""
            for res in results:
                if res.config.n == n and res.config.error_dist == dist \
                        and mkey in res.mad_m:
                    hit = _fmt(res.mad_m[mkey])
            cells.append(hit)
        lines.append(f"{dist},{mkey}," + ",".join(cells))
    return "\n".join(lines) + "\n"
