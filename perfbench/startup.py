"""Set-up time: fresh interpreters that import the CLI and build the
bump tables, as every `mollikit` command does before its work.

The runner scales the median probe time by the run's median host
reference (see host.py): a reference timed next to each probe tracked
single probes unreliably, while the median over a run tracked the run's
set-up median well (over six ten-run sets, correlations of 0.73 to
0.85 in five and 0.36 in one).
"""
from __future__ import annotations

import statistics
import subprocess
import sys

# cumulative import time of these modules, from `python -X importtime`
IMPORTED = ("distributions", "kernels", "quadratic", "montecarlo", "cli")


def setup_probe_code(src: str) -> str:
    """Source run by a fresh interpreter: import the CLI, build the bump
    tables, print both times."""
    return (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import mollikit.cli\n"
        "from mollikit.kernels import bump_kernel, kernel_cdf\n"
        "t1 = time.perf_counter()\n"
        "kernel_cdf(bump_kernel(), 0.0)\n"
        "t2 = time.perf_counter()\n"
        "print(t2 - t0, t2 - t1)\n")


def setup_probe(src: str, importtime: bool = False):
    """Run one probe; returns (setup seconds, table seconds, import log)."""
    cmd = [sys.executable, "-I"] + (["-X", "importtime"] if importtime else [])
    done = subprocess.run(cmd + ["-c", setup_probe_code(src)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    total, tables = (float(v) for v in done.stdout.split())
    return total, tables, done.stderr


def parse_importtime(log: str) -> dict[str, float]:
    """Cumulative seconds of each mollikit module in IMPORTED."""
    out = {}
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        module = parts[2].strip()
        if module.startswith("mollikit."):
            short = module.split(".", 1)[1]
            if short in IMPORTED:
                out[short] = int(parts[1]) * 1e-6
    return out


def setup_layers(probes) -> dict[str, float]:
    """Medians over `-X importtime` probes of the import profile and of
    the first bump-table build."""
    profiles = [parse_importtime(log) for *_, log in probes]
    out = {f"setup.import.{name}_s":
           statistics.median(p.get(name, 0.0) for p in profiles)
           for name in IMPORTED}
    out["kernels.bump_tables_s"] = statistics.median(p[1] for p in probes)
    return out
