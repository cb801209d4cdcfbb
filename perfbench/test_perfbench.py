"""Tests of the benchmark itself: every output check rejects a perturbed
output, and every workload runs end to end at a tiny size.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import startup  # noqa: E402
import workloads  # noqa: E402
from mollikit import mollify, montecarlo  # noqa: E402
from mollikit.kernels import parse_kernel  # noqa: E402
from mollikit.losses import parse_loss  # noqa: E402
from mollikit.distributions import standard_normal  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_GRID = np.linspace(-3.0, 3.0, 61)


def _tiny(name):
    return replace(workloads.WORKLOADS[name], chunk=4)


@pytest.fixture(scope="module")
def rmse():
    wl = _tiny("rmse_t4")
    config = wl.config(seed=7, index=0)
    return config, montecarlo.run_rmse_experiment(config)


@pytest.fixture(scope="module")
def mad():
    wl = _tiny("mad_normal")
    config = wl.config(seed=7, index=0)
    return config, montecarlo.run_mad_experiment(config)


def _perturbed(result, edit):
    out = copy.deepcopy(result)
    edit(out)
    return out


def _has(problems, text):
    return any(text in p for p in problems)


# ---------------------------------------------------------------------------
# rmse_t4
# ---------------------------------------------------------------------------

def test_rmse_checks_pass_on_program_output(rmse):
    assert checks.check_rmse(*rmse) == []


def test_exact_fit_shifted_is_caught(rmse):
    config, result = rmse
    bad = _perturbed(result, lambda r: r.records[1].update(
        theta_tau=r.records[1]["theta_tau"] + 1e-3))
    assert _has(checks.check_rmse(config, bad), "brute-force argmin")


@pytest.mark.parametrize("field,key", [("theta_m", "10"), ("theta_h", "0.1")])
def test_fit_far_from_optimum_breaks_objective_bound(rmse, field, key):
    config, result = rmse
    bad = _perturbed(result, lambda r: r.records[2][field].update(
        {key: r.records[2][field][key] + 0.5}))
    assert _has(checks.check_rmse(config, bad), "exceeds n L mu1 / m")


@pytest.mark.parametrize("field", ["rmse_tau", "rmse_m", "rmse_h"])
def test_rmse_not_from_records_is_caught(rmse, field):
    config, result = rmse

    def edit(r):
        if field == "rmse_tau":
            r.rmse_tau += 1e-3
        else:
            table = getattr(r, field)
            key = next(iter(table))
            table[key] += 1e-3
    assert _has(checks.check_rmse(config, _perturbed(result, edit)),
                "records give")


def test_generated_samples_match_scipy_quantiles(rmse):
    config, _ = rmse
    assert checks.check_generated_samples(config, range(3)) == []


def test_perturbed_t4_draw_is_caught(rmse, monkeypatch):
    config, _ = rmse
    original = montecarlo.generate_sample

    def shifted(cfg, j):
        sample = original(cfg, j)
        e = sample.e.copy()
        e[5] += 1e-6
        return replace(sample, y=sample.x[:, 0] + e, e=e)

    monkeypatch.setattr(montecarlo, "generate_sample", shifted)
    assert _has(checks.check_generated_samples(config, range(2)),
                "errors differ")


def test_thread_invariance_check():
    wl = _tiny("rmse_t4")
    config = wl.config(seed=3, index=0, replications=2)
    one = montecarlo.run_rmse_experiment(config, threads=1).records
    two = montecarlo.run_rmse_experiment(config, threads=2).records
    assert checks.check_thread_invariance(one, two) == []
    bad = copy.deepcopy(two)
    bad[1]["theta_m"]["5"] += 1e-12
    assert checks.check_thread_invariance(one, bad) != []


# ---------------------------------------------------------------------------
# mad_normal
# ---------------------------------------------------------------------------

def test_mad_checks_pass_on_program_output(mad):
    assert checks.check_mad(*mad) == []


def test_beta_q_off_closed_form_is_caught(mad):
    config, result = mad
    bad = _perturbed(result, lambda r: r.records[0].update(
        beta_q=r.records[0]["beta_q"] + 1e-6))
    assert _has(checks.check_mad(config, bad), "closed form")


def test_gap_not_distance_is_caught(mad):
    config, result = mad
    bad = _perturbed(result, lambda r: r.records[3]["gap_m"].update(
        {"15": r.records[3]["gap_m"]["15"] + 1e-6}))
    assert _has(checks.check_mad(config, bad), "is not |beta_m - beta_Q|")


def test_mad_fit_far_from_optimum_breaks_objective_bound(mad):
    config, result = mad
    shift = 0.5 * np.sqrt(config.n)

    def edit(r):
        rec = r.records[1]
        rec["beta_m"]["5"] += shift
        rec["gap_m"]["5"] = abs(rec["beta_m"]["5"] - rec["beta_q"])
    assert _has(checks.check_mad(config, _perturbed(result, edit)),
                "exceeds n L mu1 / m")


def test_mad_not_from_records_is_caught(mad):
    config, result = mad
    bad = _perturbed(result, lambda r: r.mad_m.update({"10": r.mad_m["10"] + 1e-6}))
    assert _has(checks.check_mad(config, bad), "records give")


# ---------------------------------------------------------------------------
# rate_sweep
# ---------------------------------------------------------------------------

def _cell(loss, kernel, m, grid=TINY_GRID):
    spec, kern = parse_loss(loss), parse_kernel(kernel)
    sup = mollify.sup_error(mollify.smoothed_loss(spec, kern, m), grid)
    gap = mollify.expected_derivative_gap(spec, kern, m, standard_normal())
    return checks.RateReference(loss, kernel, m, grid), sup, gap


@pytest.mark.parametrize("loss,kernel", [
    ("abs", "bump"), ("abs", "gaussian"), ("check:0.3", "gaussian"),
    ("relu", "gaussian"), ("huber:1", "bump")])
def test_rate_cell_passes(loss, kernel):
    ref, sup, gap = _cell(loss, kernel, 10.0)
    assert ref.check(sup, gap) == []


@pytest.mark.parametrize("loss,kernel", [
    ("abs", "bump"), ("abs", "gaussian"), ("check:0.3", "gaussian"),
    ("relu", "gaussian")])
def test_rate_sup_scaled_is_caught(loss, kernel):
    ref, sup, gap = _cell(loss, kernel, 20.0)
    assert _has(ref.check(sup * 1.01, gap), "expected")


@pytest.mark.parametrize("loss", ["abs", "check:0.3"])
def test_rate_gap_scaled_is_caught(loss):
    ref, sup, gap = _cell(loss, "gaussian", 5.0)
    assert _has(ref.check(sup, gap * 1.01), "quad gives")


def test_rate_sup_above_bound_is_caught():
    ref, sup, gap = _cell("huber:1", "bump", 5.0)
    assert _has(ref.check(ref.bound * 1.01, gap), "exceeds L mu1 / m")


def test_bump_exactness_perturbed_is_caught():
    m, loss = 10.0, "relu"
    kinks = checks.LOSSES[loss][1]
    pts = checks.RateReference.band_points(loss, m, kinks, TINY_GRID)
    smoothed = mollify.smoothed_loss(parse_loss(loss), parse_kernel("bump"), m)
    values = mollify.smooth_value(smoothed, pts)
    exact = checks.RateReference.exact_outside_band
    assert exact(loss, m, kinks, TINY_GRID, values) == []
    values[7] += 1e-6
    assert _has(exact(loss, m, kinks, TINY_GRID, values), "outside kink")


def test_failed_cell_counts_as_failed_operation():
    sweep = replace(workloads.WORKLOADS["rate_sweep"], losses=("abs",),
                    kernels=("gaussian",), m_list=(10.0,), grid_points=61)
    good = sweep.run_round(seed=1, index=0)
    assert sweep.evaluate([good]) == (1, [], [])
    cell, (sup, gap) = next(iter(good.output.items()))
    bad = replace(good, output={cell: (sup * 1.01, gap)})
    attempted, failures, problems = sweep.evaluate([bad])
    assert (attempted, len(failures), problems) == (1, 1, [])


def test_repeatable_passes_check():
    first = {("abs", "bump", 5.0): (0.1, 0.2)}
    assert checks.check_repeatable([first, dict(first)]) == []
    assert checks.check_repeatable([first, {("abs", "bump", 5.0): (0.1, 0.3)}])


# ---------------------------------------------------------------------------
# end to end, tiny sizes
# ---------------------------------------------------------------------------

TINY = {
    "rmse_t4": _tiny("rmse_t4"),
    "mad_normal": _tiny("mad_normal"),
    "rate_sweep": replace(workloads.WORKLOADS["rate_sweep"], m_list=(10.0,),
                          grid_points=61),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end(name, trace):
    result = run.measure(TINY[name], seed=5, seconds=0.0, trace=trace,
                         setup_runs=1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert len(result["rounds"]) == 1
    assert result["attempted"] == result["rounds"][0][0]
    listed = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert listed == set(result["metrics"])
    assert all(np.isfinite(v) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][k] > 0 for k in listed)


def test_traced_counts_per_replication():
    result = run.measure(TINY["rmse_t4"], seed=5, seconds=0.0, trace=True,
                         setup_runs=1)
    metrics = result["metrics"]
    assert metrics["estimator.fit_smoothed.calls"] == 6.0
    assert metrics["distributions.t4_quantile.calls"] == 2.0
    assert metrics["distributions.t4_quantile.points"] == 101.0
    assert metrics["estimator.fit_smoothed.backtracks"] >= 0.0
    assert metrics["quadrature.integrate_rows.calls"] == 0.0
    assert 0.0 < metrics["mollify.smoother.in_band_share"] < 1.0
    # the wrappers are gone once the traced run ends
    assert montecarlo.fit_smoothed.__module__ == "mollikit.estimator"
    assert mollify.PartialMomentSmoother.value.__module__ == "mollikit.mollify"


def test_workload_names_agree():
    listed = {w["name"] for w in SPEC["workloads"]}
    assert set(run.NAMES) == set(workloads.WORKLOADS) == listed


def test_importtime_parsing():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:      3270 |     497139 |     mollikit.distributions\n"
           "import time:      4048 |    1399239 | mollikit.cli\n")
    assert startup.parse_importtime(log) == {"distributions": 0.497139,
                                             "cli": 1.399239}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "rmse_t4", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
