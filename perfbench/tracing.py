"""Per-layer tracing for the traced run (`--trace 1`).

Spans are recorded from the benchmark's side: while a `Tracer` is
installed, each caller's binding of a public mollikit name (for example
`mollikit.montecarlo.fit_smoothed` or `mollikit.mollify.kernel_cdf`) is
replaced by a wrapper that times the call.  A layer's self time is its
span minus the spans of traced calls made inside it.  Spans are folded
into per-name totals as they close, so memory stays flat however long the
run; `Tracer.totals()` is what the trace file holds.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from mollikit import estimator, mollify, montecarlo


@dataclass
class Layer:
    calls: int = 0
    points: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class _FitFrame:
    evals: int = 0          # PartialMomentSmoother.value calls
    pairs: int = 0          # PartialMomentSmoother.curvature_pair calls


def _size(a) -> int:
    return int(np.size(a))


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._open: list[list[float]] = []   # child time of each open span
        self._fits: list[_FitFrame] = []
        self.fit_iterations = 0
        self.fit_evals = 0
        self.fit_accepted = 0
        self.bump_points = 0
        self.in_band_points = 0

    def _span(self, name, fn, points=None, before=None, after=None):
        layer = self.layers.setdefault(name, Layer())
        open_spans = self._open

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                layer.calls += 1
                layer.self_s += elapsed - children[0]
                layer.total_s += elapsed
            # bookkeeping is nobody's work: it counts as a child of the
            # enclosing span, so that no layer's self time includes it
            start = perf_counter()
            if points is not None:
                layer.points += points(args)
            if after is not None:
                after(args, out)
            if open_spans:
                open_spans[-1][0] += perf_counter() - start
            return out
        return traced

    # -- hooks -----------------------------------------------------------

    def _count_band(self, loss, kernel, m, u):
        if kernel.kind != "bump":
            return
        u = np.asarray(u, dtype=float).ravel()
        near = np.zeros(u.shape, dtype=bool)
        for k in loss.kinks:
            near |= np.abs(u - k) < 1.0 / m
        self.bump_points += u.size
        self.in_band_points += int(near.sum())

    def _smoother_hook(self, kind):
        def hook(args, _out):
            smoother, u = args[0], args[1]
            self._count_band(smoother.loss, smoother.kernel, smoother.m, u)
            if self._fits:
                frame = self._fits[-1]
                if kind == "value":
                    frame.evals += 1
                else:
                    frame.pairs += 1
        return hook

    def _fit_wrapper(self, fn):
        traced = self._span("estimator.fit_smoothed", fn)

        def fit(*args, **kwargs):
            frame = _FitFrame()
            self._fits.append(frame)
            try:
                result = traced(*args, **kwargs)
            finally:
                self._fits.pop()
            # every loop pass starts with one curvature_pair and each
            # accepted step leads to the next pass, so accepted steps are
            # the pairs minus one; every other objective evaluation after
            # the first one is a rejected trial (a backtrack)
            self.fit_iterations += result.iterations
            self.fit_evals += frame.evals
            self.fit_accepted += max(frame.pairs - 1, 0)
            return result
        return fit

    def _band_only(self, fn):
        def counted(s, u):
            self._count_band(s.loss, s.kernel, s.m, u)
            return fn(s, u)
        return counted

    def _count_nodes(self, args):
        layer = self.layers["quadrature.integrate_rows"]
        f = args[0]

        def counted(v):
            layer.points += int(np.size(v))
            return f(v)
        return (counted,) + tuple(args[1:])

    # -- installation ----------------------------------------------------

    def _bindings(self):
        smoother = mollify.PartialMomentSmoother
        first = lambda args: _size(args[0])        # noqa: E731
        second = lambda args: _size(args[1])       # noqa: E731
        self.layers.setdefault("quadrature.integrate_rows", Layer())
        return [
            (montecarlo, "run_rmse_experiment",
             lambda f: self._span("montecarlo.run", f)),
            (montecarlo, "run_mad_experiment",
             lambda f: self._span("montecarlo.run", f)),
            (montecarlo, "generate_sample",
             lambda f: self._span("montecarlo.generate_sample", f)),
            (montecarlo, "t4_quantile",
             lambda f: self._span("distributions.t4_quantile", f, first)),
            (montecarlo, "normal_quantile",
             lambda f: self._span("distributions.normal_quantile", f, first)),
            (montecarlo, "fit_smoothed", self._fit_wrapper),
            (estimator, "fit_smoothed", self._fit_wrapper),
            (montecarlo, "fit_exact_scalar_quantile",
             lambda f: self._span("estimator.fit_exact_scalar_quantile", f)),
            (montecarlo, "build_quadratic",
             lambda f: self._span("quadratic.build_quadratic", f)),
            (montecarlo, "beta_Q", lambda f: self._span("quadratic.beta_Q", f)),
            (smoother, "value",
             lambda f: self._span("mollify.smoother.value", f, second,
                                  after=self._smoother_hook("value"))),
            (smoother, "curvature_pair",
             lambda f: self._span("mollify.smoother.curvature_pair", f, second,
                                  after=self._smoother_hook("pair"))),
            (mollify, "sup_error", lambda f: self._span("mollify.sup_error", f)),
            (mollify, "expected_derivative_gap",
             lambda f: self._span("mollify.expected_derivative_gap", f)),
            (mollify, "smooth_value", self._band_only),
            (mollify, "smooth_derivative", self._band_only),
            (mollify, "kernel_cdf",
             lambda f: self._span("kernels.kernel_cdf", f, second)),
            (mollify, "kernel_partial_moment",
             lambda f: self._span("kernels.kernel_partial_moment", f, second)),
            (mollify, "kernel_value",
             lambda f: self._span("kernels.kernel_value", f, second)),
            (mollify, "integrate_rows",
             lambda f: self._span("quadrature.integrate_rows", f,
                                  before=self._count_nodes)),
        ]

    @contextmanager
    def installed(self):
        """Wrap every traced binding; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, wrap in self._bindings():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        return {name: vars(layer) for name, layer in sorted(self.layers.items())}

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, counts and times per operation."""
        def get(name):
            return self.layers.get(name, Layer())

        out = {}
        for name in ("distributions.t4_quantile", "mollify.smoother.value",
                     "mollify.smoother.curvature_pair"):
            out[f"{name}.calls"] = get(name).calls / ops
            out[f"{name}.points"] = get(name).points / ops
        out["estimator.fit_smoothed.calls"] = get("estimator.fit_smoothed").calls / ops
        out["quadrature.integrate_rows.calls"] = (
            get("quadrature.integrate_rows").calls / ops)
        out["quadrature.integrate_rows.nodes"] = (
            get("quadrature.integrate_rows").points / ops)
        for name in ("kernels.kernel_cdf", "kernels.kernel_partial_moment",
                     "kernels.kernel_value"):
            out[f"{name}.points"] = get(name).points / ops
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = get(name).self_s / ops
        out["estimator.fit_smoothed.iterations"] = self.fit_iterations / ops
        out["estimator.fit_smoothed.objective_evals"] = self.fit_evals / ops
        fits = get("estimator.fit_smoothed").calls
        out["estimator.fit_smoothed.backtracks"] = (
            self.fit_evals - fits - self.fit_accepted) / ops
        out["estimator.fit_smoothed.steps_per_eval"] = (
            self.fit_accepted / self.fit_evals if self.fit_evals else 0.0)
        out["mollify.smoother.in_band_share"] = (
            self.in_band_points / self.bump_points if self.bump_points else 0.0)
        return out


SELF_TIMED = (
    "distributions.t4_quantile", "distributions.normal_quantile",
    "montecarlo.generate_sample", "montecarlo.run",
    "estimator.fit_smoothed", "estimator.fit_exact_scalar_quantile",
    "mollify.smoother.value", "mollify.smoother.curvature_pair",
    "mollify.sup_error", "mollify.expected_derivative_gap",
    "kernels.kernel_cdf", "kernels.kernel_partial_moment",
    "kernels.kernel_value", "quadrature.integrate_rows",
    "quadratic.build_quadratic", "quadratic.beta_Q",
)
