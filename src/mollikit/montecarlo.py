"""Monte Carlo experiments for the smoothed quantile fits.

The data generating process is a scalar linear model y = x*theta0 + e
with x ~ N(1, 1), theta0 = 1 and e = eps - Q_eps(tau), so that the
tau-quantile of the error is zero.  Two experiment drivers are
provided: an RMSE comparison of the exact quantile fit against the
smoothed fits (bump kernel) and the Gaussian convolution baseline, and
a MAD experiment measuring the distance between the normalized
smoothed fit and the quadratic-surrogate minimizer.

Both drivers share one replication path.  `_record` draws replication
j with `generate_sample`, hands it to the experiment's fit body
(`_rmse_fits` or `_mad_fits`, which fill in the record's fields and
return their fits) and marks the record excluded when a fit does not
converge or the fit body raises a library error (`InputError` for a
sample it refuses) or a LinAlgError; the draw runs outside that catch,
so a sample that cannot be built crashes the run.  `generate_sample` is
looked up when each record is drawn, so a test substitutes it with
`monkeypatch.setattr`.  `_run` runs the records inline or in a process
pool and applies the 1% exclusion gate.
Both fit bodies start every smoothed fit from the replication's exact
quantile fit, which lies within about 0.1 of each smoothed minimizer,
so Newton needs fewer passes than from least squares.

Reproducibility contract: replication j draws from a dedicated stream
seeded by (base_seed, j), so results are identical for any worker
count and any replication order, and extending M preserves the prefix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .distributions import (ErrorDensity, normal_quantile, standard_normal,
                            student_t4, t4_quantile)
from .errors import ExperimentError, InputError, MollikitError
from .estimator import (FitResult, LinearSample, bandwidth_scale,
                        fit_convolution_baseline, fit_exact_scalar_quantile,
                        fit_smoothed)
from .kernels import parse_kernel
from .losses import check_loss, expected_curvature
from .mollify import check_scale
from .quadratic import beta_Q, beta_gap, build_quadratic

THETA0 = 1.0

# A fit body raising a library or linear-algebra error excludes its
# replication; any other exception (a FloatingPointError under np.seterr
# too), and any from the sample generator, propagates.
_REPLICATION_ERRORS = (MollikitError, np.linalg.LinAlgError)


def _dist_key(name: str) -> str:
    key = name.strip().lower()
    if key not in ("normal01", "t4"):
        raise InputError(f"unknown error distribution {name!r} (expected normal01|t4)")
    return key


def error_density(name: str) -> ErrorDensity:
    return standard_normal() if _dist_key(name) == "normal01" else student_t4()


def error_quantile_shift(dist: str, tau: float) -> float:
    """Quantile Q_eps(tau) subtracted from the raw errors."""
    check_loss(tau)                                 # the check loss's tau rule
    if _dist_key(dist) == "normal01":
        return float(normal_quantile(tau))
    return float(t4_quantile(tau))


def _is_a(value, kind) -> bool:
    """`value` is an instance of the numeric ABC `kind`, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
        for name in ("n", "replications", "base_seed"):
            value = getattr(self, name)
            if not _is_a(value, Integral):
                raise InputError(f"{name} must be an integer, got {value!r}")
        for name, value in (("error_dist", self.error_dist), ("kernel", self.kernel)):
            if not isinstance(value, str):
                raise InputError(f"{name} must be a string, got {value!r}")
        if not _is_a(self.tau, Real):
            raise InputError(f"tau must be a number, got {self.tau!r}")
        for name in ("m_list", "h_list"):
            raw = getattr(self, name)
            if not (isinstance(raw, (list, tuple))
                    and all(_is_a(v, Real) for v in raw)):
                raise InputError(f"{name} must be a list of numbers, got {raw!r}")
            values = tuple(float(v) for v in raw)
            if len(set(map(_key, values))) < len(values):   # results are keyed by _key
                raise InputError(f"{name} has scales with the same label: {values}")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "error_dist", _dist_key(self.error_dist))
        object.__setattr__(self, "kernel", parse_kernel(self.kernel).kind)
        if self.n < 10:
            raise InputError("n must be at least 10")
        if self.replications < 1:
            raise InputError("need at least one replication")
        if self.base_seed < 0:
            raise InputError("base_seed must be nonnegative")
        loss = check_loss(self.tau)                   # the check loss's tau rule
        for m in (*self.m_list, *map(bandwidth_scale, self.h_list)):
            check_scale(loss, m)        # each h by its own rule first

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """The config of a JSON cell, keyed as `to_dict` writes it."""
        if not isinstance(data, dict):
            raise InputError(f"a cell must be an object, got {type(data).__name__}")
        missing = {"n", "M", "tau", "error_dist", "m_list"} - set(data)
        if missing:
            raise InputError(f"config needs entries {sorted(missing)}")
        unknown = set(data) - {"n", "M", "tau", "error_dist", "m_list",
                               "h_list", "base_seed", "kernel"}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        known = dict(data)
        return cls(replications=known.pop("M"), **known)

    def to_dict(self) -> dict:
        return {"n": self.n, "M": self.replications, "tau": self.tau,
                "error_dist": self.error_dist, "m_list": list(self.m_list),
                "h_list": list(self.h_list), "base_seed": self.base_seed,
                "kernel": self.kernel}


def generate_sample(config: ExperimentConfig, replication: int) -> LinearSample:
    """Draw replication j of the simulation design.

    x is drawn first, then the raw errors: normal errors straight from
    the generator, t4 errors by feeding uniforms through scipy's t4
    quantile (`stdtrit`).
    """
    if not 0 <= replication < config.replications:
        raise InputError("replication index out of range")
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
    mean_abs_beta_m: dict[str, float] = field(default_factory=dict)
    mean_abs_beta_q: float | None = None
    excluded: int = 0
    records: list[dict] = field(default_factory=list)

    def __post_init__(self):
        values = list(self.rmse_m.values()) + list(self.rmse_h.values()) \
            + list(self.mad_m.values()) + list(self.mean_abs_beta_m.values())
        values += [v for v in (self.rmse_tau, self.mean_abs_beta_q)
                   if v is not None]
        bad = [v for v in values if not (np.isfinite(v) and v >= 0.0)]
        if bad:                          # a program fault, so untyped
            raise ValueError(f"non-finite or negative summary values: {bad}")

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "kind": self.kind,
                "rmse_tau": self.rmse_tau, "rmse_m": self.rmse_m,
                "rmse_h": self.rmse_h, "mad_m": self.mad_m,
                "mean_abs_beta_m": self.mean_abs_beta_m,
                "mean_abs_beta_q": self.mean_abs_beta_q,
                "excluded": self.excluded, "records": self.records}


@lru_cache(maxsize=None)             # one label string, shared by every record
def _key(v: float) -> str:
    return f"{v:g}"


def _rmse_fits(rec: dict, config: ExperimentConfig,
               sample: LinearSample) -> list[FitResult]:
    loss = check_loss(config.tau)
    kern = parse_kernel(config.kernel)
    rec["theta_tau"] = fit_exact_scalar_quantile(sample, config.tau)
    start = np.array([rec["theta_tau"]])
    fits_m = [(_key(m), fit_smoothed(sample, loss, kern, m, start=start))
              for m in config.m_list]
    fits_h = [(_key(h), fit_convolution_baseline(sample, config.tau, h,
                                                 start=start))
              for h in config.h_list]
    rec["theta_m"] = {k: float(fit.theta_hat[0]) for k, fit in fits_m}
    rec["theta_h"] = {k: float(fit.theta_hat[0]) for k, fit in fits_h}
    return [fit for _, fit in fits_m + fits_h]


def _mad_fits(rec: dict, config: ExperimentConfig, sample: LinearSample,
              a: float) -> list[FitResult]:
    loss = check_loss(config.tau)
    kern = parse_kernel(config.kernel)
    bq = beta_Q(build_quadratic(sample, loss, a))
    rec["beta_q"] = float(bq[0])
    start = np.array([fit_exact_scalar_quantile(sample, config.tau)])
    fits = [(_key(m), fit_smoothed(sample, loss, kern, m, start=start))
            for m in config.m_list]
    gaps = {k: beta_gap(sample, fit.theta_hat, bq) for k, fit in fits}
    rec["beta_m"] = {k: float(bm[0]) for k, (bm, _) in gaps.items()}
    rec["gap_m"] = {k: gap for k, (_, gap) in gaps.items()}
    return [fit for _, fit in fits]


def _record(fits: Callable, config: ExperimentConfig, j: int) -> dict:
    """Audit record of replication j: its seed, the fields `fits` fills
    in, and whether (and why) it is excluded.  The sample comes from the
    module's `generate_sample` as bound when the record is drawn."""
    rec = {"replication": j, "seed": f"{config.base_seed}:{j}", "failed": False}
    sample = generate_sample(config, j)     # outside the try: faults propagate
    try:
        results = fits(rec, config, sample)
        ok = all(fit.converged for fit in results)
        rec["failed"] = not ok
        if not ok:
            rec["error"] = "solver did not converge"
    except _REPLICATION_ERRORS as exc:
        rec["failed"] = True
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def _run(fits: Callable, config: ExperimentConfig,
         threads: int) -> tuple[list[dict], int, list[dict]]:
    """Every replication's record, the excluded count and the kept records.

    More than 1% excluded replications fails the run.
    """
    task = partial(_record, fits, config)
    replications = range(config.replications)
    if threads > 1:
        # the pool (and multiprocessing) loads only for a parallel run
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, config.replications // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as ex:
            records = list(ex.map(task, replications, chunksize=chunk))
    else:
        records = [task(j) for j in replications]
    excluded = sum(1 for r in records if r["failed"])
    if excluded > 0.01 * config.replications:
        raise ExperimentError(f"{excluded}/{config.replications} replications "
                              "failed (> 1% exclusion gate)")
    return records, excluded, [r for r in records if not r["failed"]]


def run_rmse_experiment(config: ExperimentConfig,
                        threads: int = 1) -> ExperimentResult:
    """RMSE of the exact, smoothed and convolution fits against theta0."""
    records, excluded, good = _run(_rmse_fits, config, threads)

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


def check_mad_config(config: ExperimentConfig):
    """The MAD experiment is defined for the median only (tau = 0.5),
    where the analytic curvature constant is the error density at zero,
    and fits no convolution baseline, so it takes no h."""
    if config.tau != 0.5:
        raise InputError("the MAD experiment requires tau = 0.5")
    if config.h_list:
        raise InputError("the MAD experiment takes no h_list, got "
                         f"{list(config.h_list)}")


def run_mad_experiment(config: ExperimentConfig,
                       threads: int = 1) -> ExperimentResult:
    """Mean absolute distance between the normalized smoothed fit and
    the quadratic-surrogate minimizer, per smoothing scale, with the
    mean sizes of the two it compares: mean|beta_m| per scale and
    mean|beta_Q|."""
    check_mad_config(config)
    fits = partial(_mad_fits, a=analytic_curvature(config))
    records, excluded, good = _run(fits, config, threads)

    def mean_abs(values):
        return float(np.mean(np.abs(values)))

    keys = [_key(m) for m in config.m_list]
    return ExperimentResult(
        config=config, kind="mad",
        mad_m={k: mean_abs([r["gap_m"][k] for r in good]) for k in keys},
        mean_abs_beta_m={k: mean_abs([r["beta_m"][k] for r in good])
                         for k in keys},
        mean_abs_beta_q=mean_abs([r["beta_q"] for r in good]),
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
    def keys(attr):
        return sorted({_key(v) for res in results for v in getattr(res.config, attr)},
                      key=float)

    rows = [("RMSE_tau", "", lambda res: res.rmse_tau)]
    rows += [("RMSE_m", f"m={k}", lambda res, k=k: res.rmse_m.get(k))
             for k in keys("m_list")]
    rows += [("RMSE_h", f"h={k}", lambda res, k=k: res.rmse_h.get(k))
             for k in keys("h_list")]
    lines = ["estimator,param," + ",".join(_cell_label(r.config) for r in results)]
    for name, param, get in rows:
        cells = ("" if get(res) is None else _fmt(get(res)) for res in results)
        lines.append(f"{name},{param}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def mad_table_csv(results: list[ExperimentResult]) -> str:
    """Rows are (statistic, dist, m), one column per sample size: MAD and
    mean|beta_m| per (dist, m), then mean|beta_Q| per dist (blank m)."""
    ns = sorted({res.config.n for res in results})
    pairs = dict.fromkeys((res.config.error_dist, _key(m))
                          for res in results for m in res.config.m_list)
    cells = {}
    for res in results:
        dist, n = res.config.error_dist, res.config.n
        for k, v in res.mad_m.items():
            cells["MAD", dist, k, n] = _fmt(v)
        for k, v in res.mean_abs_beta_m.items():
            cells["mean|beta_m|", dist, k, n] = _fmt(v)
        if res.mean_abs_beta_q is not None:
            cells["mean|beta_Q|", dist, "", n] = _fmt(res.mean_abs_beta_q)
    rows = [(stat, dist, k) for stat in ("MAD", "mean|beta_m|")
            for dist, k in pairs]
    rows += [("mean|beta_Q|", dist, "")
             for dist in dict.fromkeys(dist for dist, _ in pairs)]
    lines = ["statistic,dist,m," + ",".join(f"n={n}" for n in ns)]
    lines += [f"{stat},{dist},{k}," + ",".join(cells.get((stat, dist, k, n), "")
                                               for n in ns)
              for stat, dist, k in rows]
    return "\n".join(lines) + "\n"
