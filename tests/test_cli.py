import argparse
import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mollikit import cli
from mollikit.errors import ExperimentError
from mollikit.kernels import bump_kernel, kernel_abs_moment

MU1_BUMP = kernel_abs_moment(bump_kernel(), 1)


REPO = Path(__file__).resolve().parents[1]


def _cell(**kw):
    return {**dict(n=100, M=10, tau=0.3, error_dist="t4", m_list=[5],
                   h_list=[0.5], base_seed=7, kernel="bump"), **kw}


def _write_config(path, **kw):
    path.write_text(json.dumps(_cell(**kw)))
    return path


def _write_cells(path, cells):
    path.write_text(json.dumps(cells))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_shape(tmp_path):
    out = tmp_path / "f.csv"
    rc = cli.main(["curve", "--loss", "relu", "--kernel", "gaussian",
                   "--m", "2,5", "--grid", "-2:2:0.5", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["u", "rho", "rho_2", "rho_5"]
    assert len(rows) == 1 + 9


def test_curve_values_absolute_bump(tmp_path):
    out = tmp_path / "abs.csv"
    rc = cli.main(["curve", "--loss", "abs", "--kernel", "bump",
                   "--m", "10", "--grid", "-1:1:0.5", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    at_zero = [r for r in rows[1:] if float(r[0]) == 0.0][0]
    assert float(at_zero[1]) == 0.0
    assert float(at_zero[2]) == pytest.approx(MU1_BUMP / 10, abs=1e-10)


def test_curve_exactness_row(tmp_path):
    out = tmp_path / "relu.csv"
    rc = cli.main(["curve", "--loss", "relu", "--kernel", "bump",
                   "--m", "10", "--grid", "0:2:0.5", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    at_15 = [r for r in rows[1:] if float(r[0]) == 1.5][0]
    assert float(at_15[2]) == pytest.approx(1.5, abs=1e-10)


def test_curve_bad_loss_grammar(tmp_path, capsys):
    for flags in (["--loss", "pinball:0.5", "--kernel", "bump"],
                  ["--loss", "check:x", "--kernel", "bump"],
                  ["--loss", "abs", "--kernel", "box"]):
        rc = cli.main(["curve", *flags, "--m", "5", "--grid", "0:1:0.5",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2, flags
        assert capsys.readouterr().err.startswith("error: "), flags
    assert not (tmp_path / "x.csv").exists()


def test_programming_error_propagates(tmp_path, monkeypatch):
    # a ValueError from inside a command's work is a bug, not a usage
    # error: it must not be reported as exit code 2
    def broken(s, grid):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "sup_error", broken)
    with pytest.raises(ValueError, match="broadcast"):
        cli.main(["rate", "--loss", "abs", "--kernel", "bump", "--m", "5",
                  "--out", str(tmp_path / "x.csv")])
    assert not (tmp_path / "x.csv").exists()

    # nor is a TypeError raised while a config cell is built and checked
    def broken_check(loss, m):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(cli.montecarlo, "check_scale", broken_check)
    cfg = _write_config(tmp_path / "cfg.json", M=3)
    with pytest.raises(TypeError, match="unsupported operand"):
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert not (tmp_path / "s.json").exists()


def test_bad_loss_parameter_names_the_grammar(tmp_path, capsys):
    for spec in ("check:abc", "huber:x"):
        rc = cli.main(["curve", "--loss", spec, "--kernel", "bump", "--m", "5",
                       "--grid", "0:1:0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2, spec
        assert capsys.readouterr().err == (
            f"error: bad loss spec {spec!r} (expected abs|check:TAU|huber:C|relu)\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["rate", "curve"])
def test_infinite_huber_threshold_is_refused(tmp_path, capsys, command):
    rc = cli.main([command, "--loss", "huber:inf", "--kernel", "bump", "--m", "5",
                   "--grid", "0:1:0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: huber threshold c must be in (0, inf), got inf\n")
    assert not (tmp_path / "x.csv").exists()


def test_curve_bad_grid(tmp_path, capsys):
    rc = cli.main(["curve", "--loss", "abs", "--kernel", "bump", "--m", "5",
                   "--grid", "3:1:0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    for grid in ("nan:1:0.1", "0:inf:0.1", "-inf:1:0.1", "0:1:nan", "0:1:inf",
                 "a:b:c", "0:1:x"):
        rc = cli.main(["curve", "--loss", "abs", "--kernel", "bump", "--m", "5",
                       "--grid", grid, "--out", str(tmp_path / "x.csv")])
        assert rc == 2, grid
        assert capsys.readouterr().err.startswith("error: bad grid"), grid
    rc = cli.main(["curve", "--loss", "abs", "--kernel", "bump", "--m", "5",
                   "--grid", "0:1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "expected lo:hi:step" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_oversized_grid_is_refused_before_allocation(tmp_path, monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(np, "linspace", lambda lo, hi, num: sizes.append(num))
    for grid in ("0:1:1e-12", f"0:{cli.MAX_GRID_POINTS}:1", "-1e308:1e308:1"):
        rc = cli.main(["curve", "--loss", "abs", "--kernel", "bump", "--m", "5",
                       "--grid", grid, "--out", str(tmp_path / "x.csv")])
        assert rc == 2, grid
        assert "points" in capsys.readouterr().err, grid
    assert sizes == []
    assert not (tmp_path / "x.csv").exists()
    cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")
    assert sizes == [cli.MAX_GRID_POINTS]


def test_dash_grid_values_fold_into_the_flag():
    argv = ["rate", "--grid", "-2:2:0.5", "--m", "5", "--grid", "--grid",
            "-1:1:0.1", "-x:y"]
    assert cli._absorb_dash_values(argv) == [
        "rate", "--grid=-2:2:0.5", "--m", "5", "--grid", "--grid=-1:1:0.1", "-x:y"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["curve", "--bogus", "1"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_halving(tmp_path):
    out = tmp_path / "r.csv"
    rc = cli.main(["rate", "--loss", "abs", "--kernel", "bump",
                   "--m", "10,20", "--grid", "-2:2:0.01", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["m", "sup_error"]
    e10, e20 = float(rows[1][1]), float(rows[2][1])
    assert e10 / e20 == pytest.approx(2.0, abs=0.01)


def test_rate_huber_interior_quartering(tmp_path):
    out = tmp_path / "h.csv"
    rc = cli.main(["rate", "--loss", "huber:1", "--kernel", "bump",
                   "--m", "10,20", "--grid", "-0.9:0.9:0.01", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert float(rows[1][1]) / float(rows[2][1]) == pytest.approx(4.0, abs=0.05)


def test_rate_far_grid(tmp_path):
    # values near 1e5 carry rounding of order 1e-11, which no absolute
    # quadrature target could absorb
    out = tmp_path / "far.csv"
    rc = cli.main(["rate", "--loss", "abs", "--kernel", "bump",
                   "--m", "10", "--grid", "99999:100001:1", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["m", "sup_error"]
    assert float(rows[1][1]) <= 1e-9


def test_rate_empty_m_list(tmp_path, capsys):
    rc = cli.main(["rate", "--loss", "abs", "--kernel", "bump", "--m", "",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = cli.main(["rate", "--loss", "abs", "--kernel", "bump", "--m", "5,abc",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "bad m list" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_rate_refuses_a_scale_the_smoother_refuses(tmp_path, capsys):
    for loss, m in (("check:0.3", "1e-150"), ("abs", "1e308")):
        rc = cli.main(["rate", "--loss", loss, "--kernel", "bump", "--m", f"5,{m}",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2, (loss, m)
        assert "smoothing scale" in capsys.readouterr().err, (loss, m)
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# simulate / mad
# ---------------------------------------------------------------------------

def test_simulate_smoke_and_determinism(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    start = time.perf_counter()
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "a"), "--threads", "1"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 10.0
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "b"), "--threads", "2"])
    assert rc == 0
    da = json.loads((tmp_path / "a.json").read_text())
    db = json.loads((tmp_path / "b.json").read_text())
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db
    # output files parse with stock readers
    rows = _read_csv(tmp_path / "a.csv")
    assert rows[0][0] == "estimator"
    assert {"config", "rmse_m", "records"} <= set(da)


def test_mad_cli(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", tau=0.5, M=6,
                        error_dist="normal01", m_list=[5, 15], h_list=[])
    rc = cli.main(["mad", "--config", str(cfg), "--out", str(tmp_path / "m"),
                   "--threads", "1"])
    assert rc == 0
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["kind"] == "mad"
    assert set(data["mad_m"]) == {"5", "15"}
    rows = _read_csv(tmp_path / "m.csv")
    assert rows[0] == ["statistic", "dist", "m", "n=100"]
    assert [row[0] for row in rows[1:]] == ["MAD", "MAD", "mean|beta_m|",
                                            "mean|beta_m|", "mean|beta_Q|"]


def test_mad_list_refuses_tau_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    _forbid_runs(monkeypatch)
    cells = [_cell(M=300, tau=0.5, h_list=[]), _cell(tau=0.3)]
    cfg = _write_cells(tmp_path / "cells.json", cells)
    rc = cli.main(["mad", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "cell 1: the MAD experiment requires tau = 0.5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_mad_refuses_an_h_list(tmp_path, monkeypatch, capsys):
    # the MAD experiment fits no convolution baseline, so it would echo
    # an h_list in its results without using it
    _forbid_runs(monkeypatch)
    cfg = _write_config(tmp_path / "cfg.json", M=3, tau=0.5, h_list=[0.5])
    rc = cli.main(["mad", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "the MAD experiment takes no h_list, got [0.5]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("threads", ["0", "-3", "1.5"])
def test_threads_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys, threads):
    _forbid_runs(monkeypatch)
    cfg = _write_config(tmp_path / "cfg.json", M=3)
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                  "--threads", threads])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["simulate", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    missing = tmp_path / "missing.json"
    rc = cli.main(["simulate", "--config", str(missing),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    badkeys = _write_config(tmp_path / "keys.json")
    data = json.loads(badkeys.read_text())
    data["bogus"] = 1
    badkeys.write_text(json.dumps(data))
    rc = cli.main(["simulate", "--config", str(badkeys),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    for command, tau in (("simulate", 0.3), ("mad", 0.5)):
        for bad in (dict(m_list=[float("nan")]), dict(error_dist=5),
                    dict(kernel=3), dict(m_list=[5, 5.0000001]),
                    dict(m_list=[True]), dict(h_list=[1.5])):
            path = _write_config(tmp_path / "bad_value.json", tau=tau,
                                 **{"h_list": [], **bad})
            rc = cli.main([command, "--config", str(path),
                           "--out", str(tmp_path / "x")])
            assert rc == 2, bad
        # numeric fields refuse strings and negative seeds, naming the field
        for bad, name in ((dict(tau=str(tau)), "tau"), (dict(m_list=["5"]), "m_list"),
                          (dict(h_list=["0.5"]), "h_list"),
                          (dict(base_seed=-1), "base_seed")):
            path = _write_config(tmp_path / "bad_value.json",
                                 **{"tau": tau, "h_list": [], **bad})
            capsys.readouterr()
            rc = cli.main([command, "--config", str(path),
                           "--out", str(tmp_path / "x")])
            assert rc == 2, bad
            assert name in capsys.readouterr().err, bad
    assert not (tmp_path / "x.json").exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = cli.main(["rate", "--loss", "abs", "--kernel", "bump", "--m", "5",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_experiment_quality_failure_exits_3(tmp_path, monkeypatch):
    def explode(config, threads):
        raise ExperimentError("5/10 replications failed")

    monkeypatch.setattr(cli.montecarlo, "run_rmse_experiment", explode)
    cfg = _write_config(tmp_path / "cfg.json")
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
    assert rc == 3


# ---------------------------------------------------------------------------
# config files holding a list of cells
# ---------------------------------------------------------------------------

def _forbid_runs(monkeypatch):
    def never(config, threads):
        raise AssertionError("no cell may run when the config is refused")

    monkeypatch.setattr(cli.montecarlo, "run_rmse_experiment", never)
    monkeypatch.setattr(cli.montecarlo, "run_mad_experiment", never)


@pytest.mark.parametrize("command, tau", [("simulate", 0.3), ("mad", 0.5)])
def test_one_cell_list_matches_object(tmp_path, command, tau):
    cell = _cell(M=4, tau=tau, m_list=[5, 10],
                 h_list=[0.5] if command == "simulate" else [])
    obj = _write_cells(tmp_path / "obj.json", cell)
    lst = _write_cells(tmp_path / "list.json", [cell])
    for cfg, out in ((obj, "o"), (lst, "l")):
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / out), "--threads", "1"]) == 0
    single = json.loads((tmp_path / "o.json").read_text())
    listed = json.loads((tmp_path / "l.json").read_text())
    assert isinstance(listed, list) and len(listed) == 1
    single.pop("timestamp"), listed[0].pop("timestamp")
    assert listed[0] == single
    assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()


def test_list_config_combines_cells(tmp_path):
    cells = [_cell(M=3, base_seed=99),
             _cell(M=3, error_dist="normal01", tau=0.7, n=120, base_seed=99)]
    cfg = _write_cells(tmp_path / "cells.json", cells)
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "s"), "--threads", "1"]) == 0
    data = json.loads((tmp_path / "s.json").read_text())
    assert [d["config"]["n"] for d in data] == [100, 120]
    assert {d["config"]["base_seed"] for d in data} == {99}
    rows = _read_csv(tmp_path / "s.csv")
    assert rows[0] == ["estimator", "param", "t4 tau=0.3 n=100",
                       "normal01 tau=0.7 n=120"]


@pytest.mark.parametrize("command", ["simulate", "mad"])
def test_bad_list_config_runs_nothing(tmp_path, monkeypatch, capsys, command):
    _forbid_runs(monkeypatch)
    tau, h_list = (0.3, [0.5]) if command == "simulate" else (0.5, [])
    good = _cell(M=3, tau=tau, h_list=h_list)
    cases = {
        "empty": ([], "empty"),
        "not an object": ([good, 5], "cell 1: a cell must be an object, got int"),
        "missing key": ([good, {k: v for k, v in good.items() if k != "n"}],
                        "cell 1: config needs entries ['n']"),
        "m_list not a list": ([good, {**good, "m_list": 5}],
                              "cell 1: m_list must be a list of numbers"),
        "bad second cell": ([good, {**good, "tau": 1.5}], "cell 1: tau"),
        "unknown key": ([good, good, {**good, "bogus": 1}], "cell 2: "),
        "scale too small": ([good, {**good, "m_list": [1e-150]}],
                            "cell 1: smoothing scale"),
        "1/h overflows": ([good, {**good, "h_list": [5e-324]}],
                          "cell 1: smoothing scale"),
    }
    for case, (cells, message) in cases.items():
        cfg = _write_cells(tmp_path / "cells.json", cells)
        rc = cli.main([command, "--config", str(cfg),
                       "--out", str(tmp_path / "x")])
        assert rc == 2, case
        assert message in capsys.readouterr().err, case
        assert not (tmp_path / "x.json").exists(), case
        assert not (tmp_path / "x.csv").exists(), case


def test_list_exclusion_failure_exits_3_and_writes_nothing(tmp_path, monkeypatch):
    real = cli.montecarlo.run_rmse_experiment
    ran = []

    def second_fails(config, threads):
        ran.append(config.n)
        if config.n == 120:
            raise ExperimentError("3/3 replications failed")
        return real(config, threads=threads)

    monkeypatch.setattr(cli.montecarlo, "run_rmse_experiment", second_fails)
    cfg = _write_cells(tmp_path / "cells.json", [_cell(M=3), _cell(M=3, n=120)])
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "x"), "--threads", "1"])
    assert rc == 3
    assert ran == [100, 120]
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("name, cells, kind", [("rmse_grid.json", 8, "rmse"),
                                               ("mad_grid.json", 4, "mad")])
def test_paper_grids_are_valid_configs(name, cells, kind):
    check = cli.montecarlo.check_mad_config if kind == "mad" else None
    configs, is_list = cli._load_config(str(REPO / name), check)
    assert is_list and len(configs) == cells
    assert {(c.replications, c.base_seed, c.kernel) for c in configs} == \
        {(1000, 20260810, "bump")}
    assert all(c.m_list == (5.0, 10.0, 15.0) for c in configs)
    labels = {(c.error_dist, c.tau, c.n) for c in configs}
    taus = (0.3, 0.7) if kind == "rmse" else (0.5,)
    assert labels == {(d, t, n) for d in ("t4", "normal01") for t in taus
                      for n in (100, 200)}
    assert all(c.h_list == ((0.1, 0.5, 0.9) if kind == "rmse" else ())
               for c in configs)


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_json(tmp_path):
    out = tmp_path / "d.json"
    rc = cli.main(["diagnose", "--loss", "abs", "--kernel", "bump",
                   "--m", "10,20", "--grid", "-2:2:0.01", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["loss"] == "abs"
    rates = data["rates"]
    assert len(rates) == 2
    assert rates[0]["sup_error"] <= rates[0]["uniform_bound"] + 1e-9
    assert rates[1]["sup_error_ratio_to_previous"] == pytest.approx(2.0, abs=0.01)
    assert rates[1]["expected_derivative_gap"] < rates[0]["expected_derivative_gap"]


def test_diagnose_too_small_scale_exits_2(tmp_path, capsys):
    rc = cli.main(["diagnose", "--loss", "abs", "--kernel", "gaussian",
                   "--m", "1e-6", "--grid", "-2:2:0.5",
                   "--out", str(tmp_path / "d.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_diagnose_zero_sup_error_has_no_ratio(tmp_path):
    # relu is exactly zero where the bump's support stays left of its kink
    out = tmp_path / "d.json"
    rc = cli.main(["diagnose", "--loss", "relu", "--kernel", "bump",
                   "--m", "5,10", "--grid", "-3:-1:0.5", "--out", str(out)])
    assert rc == 0
    rates = json.loads(out.read_text())["rates"]
    assert [r["sup_error"] for r in rates] == [0.0, 0.0]
    assert rates[1]["sup_error_ratio_to_previous"] is None


# ---------------------------------------------------------------------------
# every subcommand
# ---------------------------------------------------------------------------

def test_every_subcommand_runs(tmp_path):
    rmse_cfg = _write_config(tmp_path / "rmse.json", M=3)
    mad_cfg = _write_config(tmp_path / "mad.json", M=3, tau=0.5, h_list=[])
    smoothing = ["--loss", "abs", "--kernel", "bump", "--m", "5",
                 "--grid", "-1:1:0.5"]
    argvs = {
        "curve": smoothing + ["--out", str(tmp_path / "c.csv")],
        "rate": smoothing + ["--out", str(tmp_path / "r.csv")],
        "simulate": ["--config", str(rmse_cfg), "--out", str(tmp_path / "s"),
                     "--threads", "1"],
        "mad": ["--config", str(mad_cfg), "--out", str(tmp_path / "m"),
                "--threads", "1"],
        "diagnose": smoothing + ["--out", str(tmp_path / "d.json")],
    }
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(argvs) == set(subparsers.choices)
    for name, argv in argvs.items():
        assert cli.main([name, *argv]) == 0, name
    # a config may also hold a list of cells
    for name, tau, h_list in (("simulate", 0.3, [0.5]), ("mad", 0.5, [])):
        cfg = _write_cells(tmp_path / f"{name}_cells.json",
                           [_cell(M=3, tau=tau, h_list=h_list),
                            _cell(M=3, tau=tau, h_list=h_list, n=120)])
        out = tmp_path / f"{name}_cells_out"
        assert cli.main([name, "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0, name
        assert len(json.loads(Path(f"{out}.json").read_text())) == 2, name


# slow modules that importing the CLI and building the bump tables must
# not load: the library never imports scipy.stats (the surrogate's probes
# lie on the signed axes), the bump tables are cubic Hermite lookups in
# plain numpy, only the tests and the benchmark's checks integrate with scipy.integrate,
# the Newton step loads LAPACK from scipy.linalg on its first solve, the
# normal and t4 functions load scipy.special on their first call, and the
# process pool loads only for a run with more than one thread
@pytest.mark.parametrize("module", ["scipy.stats", "scipy.interpolate",
                                    "scipy.integrate", "scipy.linalg",
                                    "scipy.special",
                                    "concurrent.futures.process"])
def test_cli_import_leaves_scipy_unloaded(module):
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mollikit.cli; "
            "from mollikit.kernels import bump_kernel, kernel_cdf; "
            "kernel_cdf(bump_kernel(), 0.0); "
            "print(sys.argv[2] in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src), module],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
