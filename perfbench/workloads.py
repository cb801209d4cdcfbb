"""The benchmark's workloads: inputs made from the seed, rounds of operations.

A round is the unit the runner times.  Every run attempts whole rounds, so
the number of operations attempted is a multiple of the round size.  The
host reference (see host.py) is timed before each round of a Monte Carlo
workload and before each cell of the sweep.

* Monte Carlo workloads (`rmse_t4`, `mad_normal`): a round is one call of
  `run_rmse_experiment` / `run_mad_experiment` at `threads=1` on `chunk`
  replications; an operation is one replication.  Round r of seed s uses
  base seed `s * 10**6 + r`, so every round draws fresh samples.
* `rate_sweep`: a round is one pass over every (loss, kernel, m) cell, in an
  order shuffled by the seed; an operation is one cell, which computes
  `sup_error` on the `mollikit rate` default grid and
  `expected_derivative_gap` against N(0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from mollikit import mollify, montecarlo
from mollikit.distributions import standard_normal
from mollikit.errors import ExperimentError, MollikitError
from mollikit.kernels import parse_kernel
from mollikit.losses import parse_loss

import checks
import host

_WARM_UP_ROUND = 999_999
# replications per round whose samples are compared with scipy's draws;
# as many of the first round are run again at threads=2
PREFIX = 6


@dataclass
class Round:
    """One timed round: its operation count, its wall time, that time
    scaled to the nominal host speed, and its raw outputs."""

    ops: int
    seconds: float
    scaled_seconds: float
    output: Any


@dataclass(frozen=True)
class MonteCarlo:
    """One Monte Carlo experiment cell, run in chunks of replications."""

    kind: str                       # "rmse" | "mad"
    n: int
    tau: float
    error_dist: str
    m_list: tuple[float, ...]
    chunk: int
    h_list: tuple[float, ...] = ()

    def config(self, seed: int, index: int, replications: int | None = None):
        return montecarlo.ExperimentConfig(
            n=self.n, replications=replications or self.chunk, tau=self.tau,
            error_dist=self.error_dist, m_list=self.m_list,
            h_list=self.h_list, base_seed=seed * 10**6 + index)

    def _experiment(self, config, threads=1):
        run = (montecarlo.run_rmse_experiment if self.kind == "rmse"
               else montecarlo.run_mad_experiment)
        return run(config, threads=threads)

    def warm_up(self, seed: int) -> None:
        self._experiment(self.config(seed, _WARM_UP_ROUND, 4))

    def _guarded(self, config):
        """None when the exclusion gate refused the chunk, which counts all
        its replications failed."""
        try:
            return self._experiment(config)
        except ExperimentError:
            return None

    def run_round(self, seed: int, index: int) -> Round:
        """Output (config, result) of one chunk."""
        config = self.config(seed, index)
        result, seconds, ref = host.timed(self._guarded, config)
        return Round(self.chunk, seconds, seconds * host.NOMINAL_S / ref,
                     (config, result))

    def evaluate(self, rounds: list[Round]):
        """(attempted, failures, problems) over every round of a run:
        failures describe failed operations, problems failed checks."""
        attempted = 0
        failures: list[str] = []
        problems: list[str] = []
        for rnd in rounds:
            config, result = rnd.output
            attempted += config.replications
            if result is None:
                failures += [f"seed {config.base_seed}: the exclusion gate "
                             "refused the round"] * config.replications
                continue
            failures += [f"seed {config.base_seed} rep {r['replication']}: "
                         f"{r.get('error')}" for r in result.records
                         if r["failed"]]
            if self.kind == "rmse":
                problems += checks.check_rmse(config, result)
            else:
                problems += checks.check_mad(config, result)
            problems += checks.check_generated_samples(
                config, range(min(config.replications, PREFIX)))
        first_config, first = rounds[0].output
        if first is not None:
            prefix = replace(first_config,
                             replications=min(PREFIX,
                                              first_config.replications))
            two = self._experiment(prefix, threads=2)
            problems += checks.check_thread_invariance(
                first.records[:prefix.replications], two.records)
        return attempted, failures, problems


@dataclass(frozen=True)
class RateSweep:
    """The rate-of-approximation sweep behind `mollikit rate` / `diagnose`."""

    losses: tuple[str, ...] = ("abs", "check:0.3", "huber:1", "relu")
    kernels: tuple[str, ...] = ("gaussian", "bump")
    m_list: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0)
    # 6001 points is the grid `mollikit rate` and `diagnose` use by
    # default, "-3:3:0.001"
    grid_points: int = 6001

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(-3.0, 3.0, self.grid_points)

    @property
    def cells(self) -> list[tuple[str, str, float]]:
        return [(loss, kernel, m) for loss in self.losses
                for kernel in self.kernels for m in self.m_list]

    def warm_up(self, seed: int) -> None:
        short = np.linspace(-3.0, 3.0, 11)
        density = standard_normal()
        for loss in self.losses:
            for kernel in self.kernels:
                spec, kern = parse_loss(loss), parse_kernel(kernel)
                mollify.sup_error(mollify.smoothed_loss(spec, kern, 5.0), short)
        mollify.expected_derivative_gap(parse_loss("abs"), parse_kernel("bump"),
                                        5.0, density)

    @staticmethod
    def _cell(loss, kernel, m, grid, density):
        spec, kern = parse_loss(loss), parse_kernel(kernel)
        try:
            sup = mollify.sup_error(mollify.smoothed_loss(spec, kern, m), grid)
            gap = mollify.expected_derivative_gap(spec, kern, m, density)
        except MollikitError as exc:
            return f"{type(exc).__name__}: {exc}"
        return sup, gap

    def run_round(self, seed: int, index: int) -> Round:
        """Output {cell: (sup_error, derivative_gap) or error text}."""
        cells, grid = self.cells, self.grid
        order = np.random.default_rng([seed, index]).permutation(len(cells))
        density = standard_normal()
        out = {}
        seconds = scaled = 0.0
        for i in order:
            out[cells[i]], cell_s, ref = host.timed(self._cell, *cells[i],
                                                    grid, density)
            seconds += cell_s
            scaled += cell_s * host.NOMINAL_S / ref
        return Round(len(cells), seconds, scaled, out)

    def evaluate(self, rounds: list[Round]):
        """As MonteCarlo.evaluate; a cell that raises or fails one of its
        checks is a failed operation."""
        grid = self.grid
        refs = {cell: checks.RateReference(*cell, grid=grid)
                for cell in self.cells}
        attempted = 0
        failures: list[str] = []
        for rnd in rounds:
            for cell, got in rnd.output.items():
                attempted += 1
                cell_problems = ([got] if isinstance(got, str)
                                 else refs[cell].check(*got))
                if cell_problems:
                    failures.append(f"{cell}: {'; '.join(cell_problems)}")
        problems = checks.check_repeatable([r.output for r in rounds])
        return attempted, failures, problems


WORKLOADS = {
    "rmse_t4": MonteCarlo("rmse", n=100, tau=0.3, error_dist="t4",
                          m_list=(5.0, 10.0, 15.0), h_list=(0.1, 0.5, 0.9),
                          chunk=20),
    "mad_normal": MonteCarlo("mad", n=200, tau=0.5,
                             error_dist="normal01", m_list=(5.0, 10.0, 15.0),
                             chunk=40),
    "rate_sweep": RateSweep(),
}
