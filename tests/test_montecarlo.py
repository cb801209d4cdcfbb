import json
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import t as student_t

from mollikit import montecarlo
from mollikit.errors import ExperimentError, InputError, MollikitError
from mollikit.estimator import (LinearSample, fit_convolution_baseline,
                                fit_smoothed)
from mollikit.kernels import bump_kernel
from mollikit.losses import check_loss
from mollikit.mollify import PartialMomentSmoother
from mollikit.montecarlo import (ExperimentConfig, ExperimentResult,
                                 analytic_curvature, error_quantile_shift,
                                 generate_sample, mad_table_csv,
                                 rmse_table_csv, run_mad_experiment,
                                 run_rmse_experiment)

from reference import t4_quantile_closed_form

INV_SQRT_2PI = 0.3989422804014327


def _cfg(**kw):
    base = dict(n=100, replications=10, tau=0.5, error_dist="normal01",
                m_list=(5.0,), h_list=(), base_seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


# The drivers draw every replication with `montecarlo.generate_sample`;
# a test substitutes it with monkeypatch and runs at threads=1, so the
# substitute runs in this process.  `generate_sample` imported above is
# the original, which substitutes wrap.

def _zero_error_generator(config, j):
    rng = np.random.default_rng(j)
    x = 1.0 + rng.standard_normal(config.n)
    xmat = x[:, None]
    theta0 = np.array([1.0])
    e = np.zeros(config.n)
    return LinearSample(x=xmat, y=xmat @ theta0 + e, e=e, theta0=theta0)


def _zero_regressor(sample):
    """sample with x_0 = 0, which the exact quantile fit, run in every
    replication's fit body, refuses as bad input."""
    x = sample.x.copy()
    x[0] = 0.0
    return LinearSample(x=x, y=x @ sample.theta0 + sample.e, e=sample.e,
                        theta0=sample.theta0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InputError):
        _cfg(n=5)
    with pytest.raises(InputError):
        _cfg(replications=0)
    for tau in (0.0, 1.0, -0.2, 1.5, float("nan")):   # the check loss's rule
        with pytest.raises(InputError, match="tau must lie in"):
            _cfg(tau=tau)
    with pytest.raises(InputError):
        _cfg(error_dist="cauchy")
    with pytest.raises(InputError, match="scale must be finite and at least"):
        _cfg(m_list=(0.0,))
    with pytest.raises(InputError, match="bandwidth must lie in"):
        _cfg(h_list=(1.5,))
    with pytest.raises(InputError):
        _cfg(kernel="uniform")
    for m in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="scale must be finite and at least"):
            _cfg(m_list=(5.0, m))
    with pytest.raises(InputError):
        _cfg(m_list="15")
    with pytest.raises(InputError):
        _cfg(h_list="0.5")
    with pytest.raises(InputError):
        _cfg(n=50.5)
    with pytest.raises(InputError):
        _cfg(replications=2.7)
    with pytest.raises(InputError):
        _cfg(replications=True)
    with pytest.raises(InputError):
        _cfg(base_seed=1.5)
    for bad in (dict(error_dist=5), dict(kernel=3), dict(m_list=(True,)),
                dict(m_list=(5, 5.0000001)), dict(m_list=(5.0, 5.0)),
                dict(h_list=(0.1, 0.1))):
        with pytest.raises(InputError):
            _cfg(**bad)
    # numeric fields refuse strings and negative seeds, naming the field
    for bad, name in ((dict(tau="0.3"), "tau"), (dict(m_list=("5",)), "m_list"),
                      (dict(h_list=("0.5",)), "h_list"),
                      (dict(base_seed=-1), "base_seed")):
        with pytest.raises(InputError, match=name):
            _cfg(**bad)
    # the smoothers' own scale rule, before any replication runs: m below
    # 1e-140, and h whose scale 1/h overflows
    for bad in (dict(m_list=(5.0, 1e-150)), dict(h_list=(0.5, 5e-324))):
        with pytest.raises(InputError, match="scale must be finite and at least"):
            _cfg(**bad)
    assert _cfg(m_list=(1e-140, 1e300), h_list=(1e-300,)).m_list == (1e-140, 1e300)


def test_config_json_round_trip(tmp_path):
    cfg = _cfg(m_list=(5.0, 10.0), h_list=(0.1,), error_dist="t4")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert again == cfg


def test_config_stores_canonical_kernel():
    # like error_dist, the kernel is stored under the name the results
    # JSON and the benchmark checks compare against; only case and
    # surrounding blanks are folded
    for spelling, name in (("Bump", "bump"), (" bump ", "bump"),
                           ("GAUSSIAN", "gaussian"), ("gaussian", "gaussian")):
        cfg = _cfg(kernel=spelling)
        assert cfg.kernel == name
        assert cfg.to_dict()["kernel"] == name
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(InputError):
        ExperimentConfig.from_dict({"n": 100, "M": 5, "tau": 0.5,
                                    "error_dist": "t4", "m_list": [5],
                                    "bogus": 1})
    with pytest.raises(InputError):
        ExperimentConfig.from_dict({"n": 100, "tau": 0.5,
                                    "error_dist": "t4", "m_list": [5]})
    with pytest.raises(InputError):
        ExperimentConfig.from_dict({"n": 100, "M": 5, "replications": 900,
                                    "tau": 0.5, "error_dist": "t4",
                                    "m_list": [5]})
    good = {"n": 100, "M": 5, "tau": 0.5, "error_dist": "t4", "m_list": [5]}
    assert ExperimentConfig.from_dict(good).replications == 5
    for bad in ({"m_list": [float("nan")]}, {"m_list": [float("inf")]},
                {"m_list": "15"}, {"h_list": "0.5"}, {"n": 50.5}, {"M": 2.7},
                {"error_dist": 5}, {"kernel": 3}, {"m_list": [True]},
                {"m_list": [5, 5.0000001]}, {"m_list": [5, 5]},
                {"h_list": [0.5, 0.5]}, {"tau": "0.5"}, {"m_list": ["5"]},
                {"h_list": ["0.5"]}, {"base_seed": -1}):
        with pytest.raises(MollikitError):
            ExperimentConfig.from_dict({**good, **bad})


def test_from_dict_refuses_a_malformed_cell_by_key():
    good = {"n": 100, "M": 5, "tau": 0.5, "error_dist": "t4", "m_list": [5]}
    for cell in ([good], 5, "cell", None):
        with pytest.raises(InputError, match="a cell must be an object"):
            ExperimentConfig.from_dict(cell)
    for key in ("n", "M", "tau", "error_dist", "m_list"):
        short = {k: v for k, v in good.items() if k != key}
        with pytest.raises(InputError, match=re.escape(f"needs entries ['{key}']")):
            ExperimentConfig.from_dict(short)
    for key in ("m_list", "h_list"):
        for raw in (5, 5.0, None, {"5": 1}):
            with pytest.raises(InputError, match=f"{key} must be a list of numbers"):
                ExperimentConfig.from_dict({**good, key: raw})


# ---------------------------------------------------------------------------
# quantile shift
# ---------------------------------------------------------------------------

def test_quantile_shift_symmetry():
    assert error_quantile_shift("normal01", 0.5) == pytest.approx(0.0, abs=1e-12)
    assert error_quantile_shift("t4", 0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_shift_normal_value():
    assert error_quantile_shift("normal01", 0.975) == pytest.approx(
        1.959964, abs=1e-5)


def test_quantile_shift_t4_matches_reference():
    for tau in (0.1, 0.3, 0.7, 0.975):
        assert error_quantile_shift("t4", tau) == pytest.approx(
            float(t4_quantile_closed_form(tau)), abs=1e-8)


def test_quantile_shift_domain():
    for tau in (0.0, 1.0, -0.5):
        with pytest.raises(InputError, match="tau must lie in"):
            error_quantile_shift("t4", tau)


# ---------------------------------------------------------------------------
# sample generation
# ---------------------------------------------------------------------------

def test_generate_sample_deterministic():
    cfg = _cfg(error_dist="t4", tau=0.3)
    a = generate_sample(cfg, 4)
    b = generate_sample(cfg, 4)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.e, b.e)


def test_generate_sample_streams_differ_by_replication():
    cfg = _cfg()
    a = generate_sample(cfg, 0)
    b = generate_sample(cfg, 1)
    assert not np.array_equal(a.e, b.e)


def test_generate_sample_construction_identity():
    cfg = _cfg(error_dist="t4", tau=0.7)
    s = generate_sample(cfg, 2)
    assert np.allclose(s.y - s.x @ s.theta0, s.e, rtol=0, atol=1e-12)
    assert s.theta0[0] == 1.0


def test_generate_sample_error_quantile_location():
    cfg = ExperimentConfig(n=100_000, replications=1, tau=0.5,
                           error_dist="normal01", m_list=(5.0,), base_seed=17)
    s = generate_sample(cfg, 0)
    assert np.mean(s.e < 0) == pytest.approx(0.5, abs=0.01)
    cfg_t = ExperimentConfig(n=100_000, replications=1, tau=0.3,
                             error_dist="t4", m_list=(5.0,), base_seed=17)
    st_ = generate_sample(cfg_t, 0)
    assert np.mean(st_.e < 0) == pytest.approx(0.3, abs=0.01)


def test_generate_sample_index_range():
    cfg = _cfg()
    with pytest.raises(InputError):
        generate_sample(cfg, 10)
    with pytest.raises(InputError):
        generate_sample(cfg, -1)


# ---------------------------------------------------------------------------
# RMSE experiment
# ---------------------------------------------------------------------------

def test_rmse_zero_error_hook(monkeypatch):
    monkeypatch.setattr(montecarlo, "generate_sample", _zero_error_generator)
    cfg = _cfg(replications=1, m_list=(5.0,), h_list=(0.5,))
    res = run_rmse_experiment(cfg, threads=1)
    assert res.rmse_tau == pytest.approx(0.0, abs=1e-8)
    assert res.rmse_m["5"] == pytest.approx(0.0, abs=1e-8)
    assert res.rmse_h["0.5"] == pytest.approx(0.0, abs=1e-6)
    assert res.excluded == 0


def test_rmse_prefix_reproducibility():
    small = run_rmse_experiment(_cfg(replications=5))
    big = run_rmse_experiment(_cfg(replications=10))
    assert big.records[:5] == small.records


def test_rmse_thread_count_invariance():
    cfg = _cfg(replications=24, m_list=(5.0, 10.0), h_list=(0.5,), tau=0.3,
               error_dist="t4")
    serial = run_rmse_experiment(cfg, threads=1)
    parallel = run_rmse_experiment(cfg, threads=3)
    assert serial.records == parallel.records
    assert serial.rmse_m == parallel.rmse_m
    assert serial.rmse_h == parallel.rmse_h
    assert serial.rmse_tau == parallel.rmse_tau


# a parallel run from an interpreter that has not loaded scipy.special:
# the forked workers import it on their first t4 draw
_FORK_BEFORE_LOAD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from mollikit.montecarlo import ExperimentConfig, run_rmse_experiment
assert "scipy.special" not in sys.modules
config = ExperimentConfig.from_dict(json.loads(sys.argv[2]))
result = run_rmse_experiment(config, threads=2)
# the workers drew the samples, so only they loaded scipy.special
assert "concurrent.futures.process" in sys.modules
assert "scipy.special" not in sys.modules
print(json.dumps(result.to_dict()))
"""


def test_workers_forked_before_scipy_special_loads_keep_the_records():
    cfg = _cfg(replications=8, m_list=(5.0,), h_list=(0.5,), tau=0.3,
               error_dist="t4")
    src = Path(montecarlo.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", _FORK_BEFORE_LOAD, str(src),
         json.dumps(cfg.to_dict())],
        capture_output=True, text=True, check=True)
    parallel = json.loads(done.stdout)
    serial = json.loads(json.dumps(run_rmse_experiment(cfg, threads=1).to_dict()))
    assert parallel["records"] == serial["records"]
    assert parallel == serial


def test_rmse_sensible_magnitude():
    res = run_rmse_experiment(_cfg(replications=40, tau=0.3, error_dist="t4",
                                   m_list=(5.0, 10.0)))
    assert 0.0 < res.rmse_tau < 0.5
    for v in res.rmse_m.values():
        assert abs(v - res.rmse_tau) < 0.05


def test_fits_from_the_exact_fit_need_fewer_smoother_calls(monkeypatch):
    # the saving of starting Newton at the exact quantile fit, counted
    # (so not timed): at most 0.75x the calls of least-squares starts
    calls = [0]
    for name in ("value", "curvature_pair"):
        method = getattr(PartialMomentSmoother, name)

        def counted(self, u, method=method):
            calls[0] += 1
            return method(self, u)
        monkeypatch.setattr(PartialMomentSmoother, name, counted)

    cfg = _cfg(replications=20, tau=0.3, error_dist="t4",
               m_list=(5.0, 10.0, 15.0), h_list=(0.1, 0.5, 0.9),
               base_seed=10**6)
    res = run_rmse_experiment(cfg)
    assert res.excluded == 0
    from_exact, calls[0] = calls[0], 0
    loss, kern = check_loss(cfg.tau), bump_kernel()
    for j in range(cfg.replications):
        s = generate_sample(cfg, j)
        for m in cfg.m_list:
            assert fit_smoothed(s, loss, kern, m).converged
        for h in cfg.h_list:
            assert fit_convolution_baseline(s, cfg.tau, h).converged
    assert from_exact <= 0.75 * calls[0]


def test_exclusion_gate_trips(monkeypatch):
    def broken(config, j):
        return _zero_regressor(generate_sample(config, j))

    monkeypatch.setattr(montecarlo, "generate_sample", broken)
    for run in (run_rmse_experiment, run_mad_experiment):
        with pytest.raises(ExperimentError, match="10/10 replications failed"):
            run(_cfg(replications=10), threads=1)


def test_generator_breaking_the_model_crashes_the_run(monkeypatch):
    # a generator runs before the replication's fits, so a sample it
    # cannot build is a program fault: it propagates instead of being
    # recorded as an exclusion
    def off_model(config, j):
        s = _zero_error_generator(config, j)
        return LinearSample(x=s.x, y=s.y + 1.0, e=s.e, theta0=s.theta0)

    def short_errors(config, j):
        s = _zero_error_generator(config, j)
        return LinearSample(x=s.x, y=s.y, e=s.e[1:], theta0=s.theta0)

    for broken, message in ((off_model, "does not equal"),
                            (short_errors, "e must have one entry per")):
        monkeypatch.setattr(montecarlo, "generate_sample", broken)
        with pytest.raises(InputError, match=message):
            montecarlo._record(montecarlo._rmse_fits, _cfg(), 0)
        for run in (run_rmse_experiment, run_mad_experiment):
            with pytest.raises(InputError, match=message):
                run(_cfg(replications=3), threads=1)


def test_scale_overflowing_the_hessian_fails_every_replication(monkeypatch):
    # m = 1e308 passes the config's scale rule on the check loss (m times
    # its jump is finite), but every fit refuses it
    records, record = [], montecarlo._record

    def spy(*args):
        records.append(record(*args))
        return records[-1]

    monkeypatch.setattr(montecarlo, "_record", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExperimentError):
            run_rmse_experiment(_cfg(replications=4, tau=0.3, m_list=(1e308,)))
    assert len(records) == 4
    for rec in records:
        assert rec["failed"]
        assert rec["error"].startswith("InputError: smoothing scale 1e+308")
        assert "Hessian" in rec["error"]


def test_exclusion_audit_below_gate(monkeypatch):
    def flaky(config, j):
        sample = generate_sample(config, j)
        return _zero_regressor(sample) if j == 0 else sample

    monkeypatch.setattr(montecarlo, "generate_sample", flaky)
    cfg = _cfg(replications=200)
    res = run_rmse_experiment(cfg, threads=1)
    assert res.excluded == 1
    assert res.records[0]["failed"]
    assert res.records[0]["error"] == "InputError: every x_i must be nonzero"


def _summaries(res):
    return (res.rmse_tau, res.rmse_m, res.mad_m, res.mean_abs_beta_m,
            res.mean_abs_beta_q)


@pytest.mark.parametrize("run", [run_rmse_experiment, run_mad_experiment])
def test_unconverged_fit_excludes_its_replication(run, monkeypatch):
    # the substitute generator marks replication 3's sample, and its smoothed
    # fit comes back unconverged; the record still holds that fit's
    # fields, so the summaries match a run that drops replication 3
    # before any fit only if they leave the record out
    marked = []

    def marking(config, j):
        sample = generate_sample(config, j)
        if j == 3:
            marked.append(sample)
        return sample

    def dropping(config, j):
        sample = generate_sample(config, j)
        return _zero_regressor(sample) if j == 3 else sample

    def unconverged(sample, *args, **kw):
        fit = fit_smoothed(sample, *args, **kw)
        if any(sample is m for m in marked):
            return replace(fit, converged=False)
        return fit

    monkeypatch.setattr(montecarlo, "fit_smoothed", unconverged)
    cfg = _cfg(replications=200)
    monkeypatch.setattr(montecarlo, "generate_sample", dropping)
    dropped = run(cfg, threads=1)
    monkeypatch.setattr(montecarlo, "generate_sample", marking)
    res = run(cfg, threads=1)
    assert res.excluded == 1
    assert res.records[3]["failed"]
    assert res.records[3]["error"] == "solver did not converge"
    others = [j for j in range(200) if j != 3]
    assert [res.records[j] for j in others] == [dropped.records[j] for j in others]
    for name in ("rmse_tau", "rmse_m", "mad_m", "mean_abs_beta_m",
                 "mean_abs_beta_q"):
        assert getattr(res, name) == getattr(dropped, name), name
    with pytest.raises(ExperimentError):
        run(_cfg(replications=50), threads=1)


@pytest.mark.parametrize("run", [run_rmse_experiment, run_mad_experiment])
def test_programming_error_propagates(run, monkeypatch):
    # only library and linear-algebra errors exclude a replication; a
    # bug, or a FloatingPointError under a caller's np.seterr, must
    # crash, not count as an exclusion
    for error in (NameError("name 'undefined' is not defined"),
                  FloatingPointError("underflow encountered in exp")):
        def buggy(config, j, error=error):
            raise error

        monkeypatch.setattr(montecarlo, "generate_sample", buggy)
        with pytest.raises(type(error)):
            run(_cfg(replications=3), threads=1)


# ---------------------------------------------------------------------------
# MAD experiment
# ---------------------------------------------------------------------------

def test_mad_requires_median():
    with pytest.raises(InputError):
        run_mad_experiment(_cfg(tau=0.3))


def test_mad_refuses_an_h_list(monkeypatch):
    # the MAD experiment fits no convolution baseline, so an h would be
    # echoed in the results without ever being used
    def never(config, j):
        raise AssertionError("no replication may run when the config is refused")

    monkeypatch.setattr(montecarlo, "generate_sample", never)
    with pytest.raises(InputError, match=re.escape("takes no h_list, got [0.5]")):
        run_mad_experiment(_cfg(h_list=(0.5,)), threads=1)


def test_analytic_curvature_values():
    assert analytic_curvature(_cfg()) == pytest.approx(INV_SQRT_2PI, abs=1e-12)
    assert analytic_curvature(_cfg(error_dist="t4")) == pytest.approx(
        0.375, abs=1e-12)
    # density value at zero agrees with differentiating the CDF
    h = 1e-6
    fd = (student_t(4).cdf(h) - student_t(4).cdf(-h)) / (2 * h)
    assert analytic_curvature(_cfg(error_dist="t4")) == pytest.approx(fd, abs=1e-6)


def test_mad_thread_count_invariance():
    cfg = _cfg(replications=16, m_list=(5.0, 15.0), error_dist="t4")
    serial = run_mad_experiment(cfg, threads=1)
    parallel = run_mad_experiment(cfg, threads=3)
    assert serial.records == parallel.records
    assert serial.mad_m == parallel.mad_m


def test_mad_records_carry_audit_fields():
    res = run_mad_experiment(_cfg(replications=3, m_list=(5.0,)))
    rec = res.records[0]
    assert {"replication", "seed", "beta_q", "beta_m", "gap_m"} <= set(rec)
    assert rec["gap_m"]["5"] == pytest.approx(
        abs(rec["beta_m"]["5"] - rec["beta_q"]))


def test_mad_result_carries_mean_sizes():
    res = run_mad_experiment(_cfg(replications=5, m_list=(5.0, 15.0)))
    for k in ("5", "15"):
        assert res.mean_abs_beta_m[k] == pytest.approx(
            np.mean([abs(r["beta_m"][k]) for r in res.records]), rel=1e-15)
    assert res.mean_abs_beta_q == pytest.approx(
        np.mean([abs(r["beta_q"]) for r in res.records]), rel=1e-15)
    data = res.to_dict()
    assert data["mean_abs_beta_m"] == res.mean_abs_beta_m
    assert data["mean_abs_beta_q"] == res.mean_abs_beta_q
    with pytest.raises(ValueError, match="non-finite or negative"):
        ExperimentResult(config=_cfg(), kind="mad", mean_abs_beta_q=np.nan)


# ---------------------------------------------------------------------------
# results and tables
# ---------------------------------------------------------------------------

def test_result_rejects_bad_summaries():
    with pytest.raises(ValueError, match="non-finite or negative"):
        ExperimentResult(config=_cfg(), kind="rmse", rmse_tau=-0.1)
    with pytest.raises(ValueError, match="non-finite or negative"):
        ExperimentResult(config=_cfg(), kind="rmse", rmse_tau=float("nan"))


def test_rmse_table_layout():
    res = run_rmse_experiment(_cfg(replications=4, m_list=(5.0, 10.0),
                                   h_list=(0.1,)))
    text = rmse_table_csv([res])
    lines = text.strip().split("\n")
    assert lines[0].startswith("estimator,param,")
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["RMSE_tau", "RMSE_m", "RMSE_m", "RMSE_h"]
    # cells with different scale lists: rows are the sorted union of
    # their m and h values, and a cell without a value is blank
    first = ExperimentResult(config=_cfg(m_list=(10.0, 5.0), h_list=(0.1,)),
                             kind="rmse", rmse_tau=0.5,
                             rmse_m={"10": 0.25, "5": 0.125},
                             rmse_h={"0.1": 1.5})
    second = ExperimentResult(config=_cfg(n=200, m_list=(20.0, 5.0),
                                          h_list=(0.5, 0.1)),
                              kind="rmse", rmse_tau=0.75,
                              rmse_m={"20": 2.0, "5": 3.0},
                              rmse_h={"0.5": 4.0, "0.1": 5.0})
    assert rmse_table_csv([first, second]).split("\n") == [
        "estimator,param,normal01 tau=0.5 n=100,normal01 tau=0.5 n=200",
        "RMSE_tau,,0.5,0.75",
        "RMSE_m,m=5,0.125,3",
        "RMSE_m,m=10,0.25,",
        "RMSE_m,m=20,,2",
        "RMSE_h,h=0.1,1.5,5",
        "RMSE_h,h=0.5,,4",
        "",
    ]


def test_mad_table_layout():
    r100 = run_mad_experiment(_cfg(replications=4, m_list=(5.0,)))
    r200 = run_mad_experiment(_cfg(replications=4, m_list=(5.0,), n=200))
    text = mad_table_csv([r100, r200])
    lines = text.strip().split("\n")
    assert lines[0] == "statistic,dist,m,n=100,n=200"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [row[:3] for row in rows] == [["MAD", "normal01", "5"],
                                         ["mean|beta_m|", "normal01", "5"],
                                         ["mean|beta_Q|", "normal01", ""]]
    for row, get in zip(rows, (lambda r: r.mad_m["5"],
                               lambda r: r.mean_abs_beta_m["5"],
                               lambda r: r.mean_abs_beta_q)):
        assert float(row[3]) == pytest.approx(get(r100))
        assert float(row[4]) == pytest.approx(get(r200))
