"""Command line front end.

Subcommands: curve (loss and smoothed-loss samples to CSV), rate
(sup-error per scale) and diagnose (rate diagnostics as JSON), which
share the --loss/--kernel/--m/--grid flags; simulate (RMSE experiment)
and mad (surrogate distance experiment), which read a JSON config
holding one experiment cell or a list of cells and write one JSON and
one CSV table over all of them.

Exit codes: 0 success, 2 bad input (an `InputError`) or an `OSError`
on a config or output file, 3 experiment quality failure (an
`ExperimentError`: too many excluded replications).  Any other
exception is a bug and propagates.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import montecarlo
from .distributions import standard_normal
from .errors import ExperimentError, InputError, MollikitError
from .kernels import kernel_abs_moment, parse_kernel
from .losses import loss_value, parse_loss
from .mollify import expected_derivative_gap, smooth_value, smoothed_loss, sup_error
from .montecarlo import _fmt

EXIT_USAGE = 2
EXIT_QUALITY = 3

_DEFAULT_RATE_GRID = "-3:3:0.001"
# a grid with more points than this is refused before it is allocated
MAX_GRID_POINTS = 10**7


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:           # not three numbers
        raise InputError(f"bad grid {spec!r}, expected lo:hi:step") from exc
    if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi <= lo:
        raise InputError(f"bad grid {spec!r}: need finite hi > lo and step > 0")
    count = np.floor((hi - lo) / step + 1e-9)
    if count >= MAX_GRID_POINTS:
        raise InputError(f"bad grid {spec!r}: more than {MAX_GRID_POINTS} points")
    return np.linspace(lo, lo + count * step, int(count) + 1)


def _parse_m_list(spec: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError(f"bad m list {spec!r}") from exc
    if not values:
        raise InputError("m list must not be empty")
    return values


def _thread_count(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, payload):
    _write(path, json.dumps(payload, indent=2) + "\n")


def _smoothing(args):
    """(loss, kernel, m_list, grid) from the shared smoothing flags."""
    return (parse_loss(args.loss), parse_kernel(args.kernel),
            _parse_m_list(args.m), _parse_grid(args.grid))


def cmd_curve(args) -> int:
    loss, kernel, m_list, grid = _smoothing(args)
    smoothers = [smoothed_loss(loss, kernel, m) for m in m_list]
    cols = [grid, loss_value(loss, grid)]
    cols += [smooth_value(s, grid) for s in smoothers]
    header = "u,rho," + ",".join(f"rho_{m:g}" for m in m_list)
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_rate(args) -> int:
    loss, kernel, m_list, grid = _smoothing(args)
    lines = ["m,sup_error"]
    for m in m_list:
        err = sup_error(smoothed_loss(loss, kernel, m), grid)
        lines.append(f"{m:g},{_fmt(err)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_diagnose(args) -> int:
    loss, kernel, m_list, grid = _smoothing(args)
    mu1 = kernel_abs_moment(kernel, 1)
    density = standard_normal()
    rows = []
    prev = None
    for m in m_list:
        err = sup_error(smoothed_loss(loss, kernel, m), grid)
        gap = expected_derivative_gap(loss, kernel, m, density)
        rows.append({
            "m": m,
            "sup_error": err,
            "uniform_bound": loss.lipschitz * mu1 / m,
            "sup_error_ratio_to_previous":
                None if prev is None or err == 0.0 else prev / err,
            "expected_derivative_gap": gap,
        })
        prev = err
    _write_json(args.out, {"loss": loss.label, "kernel": kernel.kind,
                           "grid": args.grid, "rates": rows})
    return 0


def _load_config(path: str, check=None
                 ) -> tuple[list[montecarlo.ExperimentConfig], bool]:
    """The config file's cells, and whether the file held a list of them.

    Every cell is checked before any runs: one bad cell refuses the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"bad config {path}: {exc}") from exc
    is_list = isinstance(data, list)
    if is_list and not data:
        raise InputError(f"bad config {path}: the list of cells is empty")
    configs = []
    for i, cell in enumerate(data if is_list else [data]):
        where = f"cell {i}: " if is_list else ""
        try:
            configs.append(montecarlo.ExperimentConfig.from_dict(cell))
            if check is not None:
                check(configs[-1])
        except MollikitError as exc:
            raise InputError(f"bad config {path}: {where}{exc}") from exc
    return configs, is_list


def cmd_experiment(args) -> int:
    """Run every cell of the config, then write PREFIX.json (one payload,
    or a list of them for a list config) and PREFIX.csv (one table)."""
    configs, is_list = _load_config(args.config, args.check)
    results = [args.run(config, threads=args.threads) for config in configs]
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    payloads = [{**result.to_dict(), "timestamp": stamp} for result in results]
    _write_json(args.out + ".json", payloads if is_list else payloads[0])
    _write(args.out + ".csv", args.table(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mollikit",
        description="Smooth nonsmooth losses by mollifier convolution and "
                    "run the associated estimation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, blurb, grid in (
            ("curve", cmd_curve, "sample loss and smoothed curves to CSV", None),
            ("rate", cmd_rate, "sup-error per smoothing scale to CSV",
             _DEFAULT_RATE_GRID),
            ("diagnose", cmd_diagnose, "rate diagnostics as JSON",
             _DEFAULT_RATE_GRID)):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--loss", required=True,
                         help="abs | check:TAU | huber:C | relu")
        cmd.add_argument("--kernel", required=True, help="gaussian | bump")
        cmd.add_argument("--m", required=True, help="comma-separated scales")
        cmd.add_argument("--grid", required=grid is None, default=grid,
                         help="lo:hi:step")
        cmd.add_argument("--out", required=True)
        cmd.set_defaults(func=func)

    for name, run, check, table, blurb in (
            ("simulate", montecarlo.run_rmse_experiment, None,
             montecarlo.rmse_table_csv, "RMSE experiment"),
            ("mad", montecarlo.run_mad_experiment, montecarlo.check_mad_config,
             montecarlo.mad_table_csv, "surrogate-distance experiment")):
        cmd = sub.add_parser(name, help=f"run the {blurb} from a JSON config "
                                        "of one cell or a list of cells")
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=True,
                         help="output prefix; writes PREFIX.json and PREFIX.csv")
        cmd.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1)
        cmd.set_defaults(func=cmd_experiment, run=run, check=check, table=table)
    return parser


def _absorb_dash_values(argv: list[str]) -> list[str]:
    """Let `--grid -2:2:0.5` parse even though the value starts with a dash."""
    out = []
    for tok in argv:
        if out and out[-1] == "--grid" and tok.startswith("-") and ":" in tok:
            out[-1] = f"--grid={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_absorb_dash_values(list(argv)))
    try:
        return args.func(args)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    except (MollikitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
