"""Command line front end.

Subcommands: curve (loss and smoothed-loss samples to CSV), rate
(sup-error per scale), simulate (RMSE experiment), mad (surrogate
distance experiment) and diagnose (rate diagnostics as JSON).

Exit codes: 0 success, 2 usage, config or output-file error, 3
experiment quality failure (too many excluded replications).
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
from .errors import ExperimentError, MollikitError
from .kernels import kernel_abs_moment, parse_kernel
from .losses import loss_value, parse_loss
from .mollify import expected_derivative_gap, smooth_value, smoothed_loss, sup_error
from .montecarlo import _fmt

EXIT_USAGE = 2
EXIT_QUALITY = 3

_DEFAULT_RATE_GRID = "-3:3:0.001"


class UsageError(ValueError):
    pass


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad grid {spec!r}, expected lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi <= lo:
        raise UsageError(f"bad grid {spec!r}: need hi > lo and step > 0")
    count = int(np.floor((hi - lo) / step + 1e-9))
    return np.linspace(lo, lo + count * step, count + 1)


def _parse_m_list(spec: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad m list {spec!r}") from exc
    if not values:
        raise UsageError("m list must not be empty")
    if any(m <= 0 for m in values):
        raise UsageError("every m must be positive")
    return values


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_curve(args) -> int:
    loss = parse_loss(args.loss)
    kernel = parse_kernel(args.kernel)
    m_list = _parse_m_list(args.m)
    grid = _parse_grid(args.grid)
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
    loss = parse_loss(args.loss)
    kernel = parse_kernel(args.kernel)
    m_list = _parse_m_list(args.m)
    grid = _parse_grid(args.grid)
    lines = ["m,sup_error"]
    for m in m_list:
        err = sup_error(smoothed_loss(loss, kernel, m), grid)
        lines.append(f"{m:g},{_fmt(err)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _load_config(path: str) -> montecarlo.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        seed_override = os.environ.get("MOLLIKIT_SEED")
        if seed_override is not None:
            data["base_seed"] = int(seed_override)
        return montecarlo.ExperimentConfig.from_dict(data)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc


def _emit_experiment(result: montecarlo.ExperimentResult, out: str,
                     table: str) -> None:
    payload = result.to_dict()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _write(out + ".csv", table)


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    result = montecarlo.run_rmse_experiment(config, threads=args.threads)
    _emit_experiment(result, args.out, montecarlo.rmse_table_csv([result]))
    return 0


def cmd_mad(args) -> int:
    config = _load_config(args.config)
    result = montecarlo.run_mad_experiment(config, threads=args.threads)
    _emit_experiment(result, args.out, montecarlo.mad_table_csv([result]))
    return 0


def cmd_diagnose(args) -> int:
    loss = parse_loss(args.loss)
    kernel = parse_kernel(args.kernel)
    m_list = _parse_m_list(args.m)
    grid = _parse_grid(args.grid)
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
            "sup_error_ratio_to_previous": None if prev is None else prev / err,
            "expected_derivative_gap": gap,
        })
        prev = err
    payload = {"loss": loss.label, "kernel": kernel.kind, "grid": args.grid,
               "rates": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mollikit",
        description="Smooth nonsmooth losses by mollifier convolution and "
                    "run the associated estimation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sample loss and smoothed curves to CSV")
    curve.add_argument("--loss", required=True,
                       help="abs | check:TAU | huber:C | relu")
    curve.add_argument("--kernel", required=True, help="gaussian | bump")
    curve.add_argument("--m", required=True, help="comma-separated scales")
    curve.add_argument("--grid", required=True, help="lo:hi:step")
    curve.add_argument("--out", required=True)
    curve.set_defaults(func=cmd_curve)

    rate = sub.add_parser("rate", help="sup-error per smoothing scale to CSV")
    rate.add_argument("--loss", required=True)
    rate.add_argument("--kernel", required=True)
    rate.add_argument("--m", required=True)
    rate.add_argument("--grid", default=_DEFAULT_RATE_GRID)
    rate.add_argument("--out", required=True)
    rate.set_defaults(func=cmd_rate)

    for name, func, blurb in (("simulate", cmd_simulate, "RMSE experiment"),
                              ("mad", cmd_mad, "surrogate-distance experiment")):
        cmd = sub.add_parser(name, help=f"run the {blurb} from a JSON config")
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=True,
                         help="output prefix; writes PREFIX.json and PREFIX.csv")
        cmd.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        cmd.set_defaults(func=func)

    diag = sub.add_parser("diagnose", help="rate diagnostics as JSON")
    diag.add_argument("--loss", required=True)
    diag.add_argument("--kernel", required=True)
    diag.add_argument("--m", required=True)
    diag.add_argument("--grid", default=_DEFAULT_RATE_GRID)
    diag.add_argument("--out", required=True)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def _absorb_dash_values(argv: list[str]) -> list[str]:
    """Let `--grid -2:2:0.5` parse even though the value starts with a dash."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok == "--grid" and nxt is not None and nxt.startswith("-") \
                and ":" in nxt:
            out.append(f"--grid={nxt}")
            skip = True
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
    except (UsageError, MollikitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
