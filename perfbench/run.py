#!/usr/bin/env python3
"""mollikit benchmark: run one workload, print one JSON result line.

    python3 perfbench/run.py --workload rmse_t4 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  With `--trace 0` the last line of standard output holds the
end-to-end metrics (`setup_s`, `ops_per_s`, `peak_rss_mb`); with
`--trace 1` it holds the per-layer metrics of a traced run.  Details of
the run go to `perfbench/out/`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("rmse_t4", "mad_normal", "rate_sweep")
SETUP_RUNS = 7
TRACE_SETUP_RUNS = 3


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_runs: int) -> dict:
    """Warm-up, then whole rounds for `seconds` of round time with the
    set-up probes spread among them, then the checks."""
    import host
    import startup
    import tracing

    src = str(SRC)
    startup.setup_probe(src)        # writes the bytecode caches; dropped
    workload.warm_up(seed)
    tracer = tracing.Tracer() if trace else None
    rounds, probes = [], []
    busy = 0.0
    with tracer.installed() if trace else nullcontext():
        while not rounds or busy < seconds:
            # probe i runs once i / setup_runs of the round time is done,
            # so that the probes sample the host across the whole run
            due = len(probes) * seconds <= busy * setup_runs
            if due and len(probes) < setup_runs:
                probes.append(startup.setup_probe(src, importtime=trace))
            rounds.append(workload.run_round(seed, len(rounds)))
            busy += rounds[-1].seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < setup_runs:
        probes.append(startup.setup_probe(src, importtime=trace))

    attempted, failures, problems = workload.evaluate(rounds)
    reference_s = statistics.median(
        r.seconds / r.scaled_seconds * host.NOMINAL_S for r in rounds)
    raw = {"ops_per_s": attempted / busy, "reference_s": reference_s,
           "setup_s": statistics.median(p[0] for p in probes)}
    if trace:
        metrics = dict(startup.setup_layers(probes), **tracer.per_op(attempted))
        metrics["host.reference_s"] = reference_s
    else:
        # operations over the scaled time of all rounds: the rounds of a
        # Monte Carlo workload differ in cost with their samples, and the
        # sweep's passes are few, so a ratio of totals is steadier than a
        # median of round rates.  The probes run in other processes and
        # are spread over the run, so they are scaled by the run's median
        # reference rather than by one reference each.
        metrics = {"setup_s": raw["setup_s"] * host.NOMINAL_S / reference_s,
                   "ops_per_s": attempted / sum(r.scaled_seconds
                                                for r in rounds),
                   "peak_rss_mb": peak_rss_mb}
    return {"correct": not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics, "problems": problems,
            "failures": failures, "raw": raw,
            "rounds": [(r.ops, r.seconds, r.scaled_seconds) for r in rounds],
            "setup_probes": [p[:2] for p in probes],
            "layers": tracer.totals() if trace else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mollikit" / "__init__.py").is_file():
        print(f"error: no mollikit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    trace = bool(args.trace)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, trace,
                     TRACE_SETUP_RUNS if trace else SETUP_RUNS)
    for failure in result["failures"][:20]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    listed = spec["per_layer" if trace else "end_to_end"]
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                    "unit": m["unit"]} for m in listed}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
