"""Mollifier kernels: smooth, symmetric, unit-mass densities.

Two kernels are supported.  The Gaussian kernel is the standard normal
density on the whole line.  The bump kernel is the compactly supported
density C*exp(-1/(1-v^2)) on (-1, 1), identically zero outside, with C
fixed so the density has unit mass; every derivative vanishes at the
support boundary, which is what makes convolution against it leave a
loss untouched away from its kinks.
The bump's C, absolute moments mu1, mu2 and CDF / partial-moment /
excess-moment tables all come from one Gauss-Legendre pass per process.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt, pi

import numpy as np

from .distributions import _NORMAL_CAP, _as_same, _special, normal_pdf
from .errors import InputError

GAUSSIAN = "gaussian"
BUMP = "bump"

# From this |v| on, exp(-1/(1-v^2)) < exp(-5000) underflows to 0.
_BUMP_EDGE = 0.9999


@dataclass(frozen=True)
class MollifierKernel:
    """A smoothing density, identified by kind ("gaussian" or "bump")."""

    kind: str

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, BUMP):
            raise InputError(f"unknown kernel kind {self.kind!r}")

    @property
    def reach(self) -> float:
        """|t| from which phi and every kernel integral are their limits
        exactly, a few ulp short of it too: 1 on the bump, 40 on the Gaussian."""
        return 1.0 if self.kind == BUMP else _NORMAL_CAP


def gaussian_kernel() -> MollifierKernel:
    return MollifierKernel(GAUSSIAN)


def bump_kernel() -> MollifierKernel:
    return MollifierKernel(BUMP)


def parse_kernel(text: str) -> MollifierKernel:
    """Parse the CLI kernel grammar: "gaussian" or "bump"."""
    name = text.strip().lower()
    if name not in (GAUSSIAN, BUMP):
        raise InputError(f"unknown kernel {text!r} (expected gaussian|bump)")
    return MollifierKernel(name)


def _bump_raw(v: np.ndarray) -> np.ndarray:
    """exp(-1/(1-v^2)) inside the open support, 0 outside (unnormalized),
    as an array of at least one dimension."""
    # fmin sends |v| past the edge, NaN included, to the edge, where the
    # exp gives 0 and v^2 cannot overflow; then every step works in place,
    # so long quadrature node arrays cost one allocation
    a = np.abs(np.atleast_1d(v))
    np.fmin(a, _BUMP_EDGE, out=a)
    a *= a
    np.subtract(1.0, a, out=a)
    np.divide(-1.0, a, out=a)
    return np.exp(a, out=a)


def bump_normalizer() -> float:
    """Constant C making C*exp(-1/(1-v^2)) a unit-mass density on
    [-1, 1], from the bump table pass (once per process)."""
    return _bump_pass()[3]


def kernel_value(kernel: MollifierKernel, v) -> float | np.ndarray:
    """Density value phi(v); zero outside the bump support."""
    x = np.asarray(v, dtype=float)
    if kernel.kind == GAUSSIAN:
        out = normal_pdf(x)
    else:
        out = _bump_raw(x)
        out *= bump_normalizer()
    return _as_same(v, out)


def _order(k, allowed: tuple[int, ...]) -> int:
    """k as an int, if it is an integer from `allowed`."""
    if isinstance(k, (int, np.integer)) and k in allowed:
        return int(k)
    raise InputError(f"k must be {' or '.join(map(str, allowed))}, got {k!r}")


def kernel_abs_moment(kernel: MollifierKernel, k: int) -> float:
    """Absolute moment mu_k = int |v|^k phi(v) dv for k in {0, 1, 2}."""
    k = _order(k, (0, 1, 2))
    if kernel.kind == GAUSSIAN:
        return (1.0, sqrt(2.0 / pi), 1.0)[k]
    return _bump_pass()[2][k]


# ---------------------------------------------------------------------------
# Cumulative kernel integrals.  The CDF and the partial moments
# int_{-inf}^t v^k phi(v) dv for k = 1, 2, and the excess moments
# E(V - s)_+^k for k = 1, 2 that the smoothed loss's bias is made of (see
# mollify.PartialMomentSmoother).  The Gaussian versions are closed form.
# The bump versions come from one dense Gauss-Legendre pass per process on
# a uniform grid, which also gives C, mu1 and mu2; between nodes they are
# cubic Hermite pieces.  Their node derivatives (phi, v*phi, v^2*phi, and
# -(1 - C), -2 E(V - t)_+ for the excess moments) are known exactly, so
# each piece follows from its two end nodes alone (interpolation error is a
# few 1e-16 at the grid spacing).  Each integral is one lookup, in one table
# or one closed form; the public functions clamp to the reach first.
# ---------------------------------------------------------------------------

_TABLE_POINTS = 8193
_SEGMENT_NODES = 24
# table rows are intervals; position (t + 1) * _TABLE_SCALE lies in row
# floor(position), and the padded last row (total, 0, 0, 0) serves t >= 1
_TABLE_SCALE = (_TABLE_POINTS - 1) / 2.0


def _hermite_rows(values, slopes, h):
    """Per-interval cubic coefficients (c0, c1, c2, c3) in the offset
    s = (t - g_i)/h, each a contiguous array with a padded last row."""
    rise = np.diff(values)
    lo, hi = h * slopes[:-1], h * slopes[1:]
    pad = np.zeros(1)
    return (values,
            np.concatenate([lo, pad]),
            np.concatenate([3.0 * rise - 2.0 * lo - hi, pad]),
            np.concatenate([-2.0 * rise + lo + hi, pad]))


def _cumulative(seg):
    """Running sums of seg from 0, each accurately rounded: the exact
    error of every addition (TwoSum) is carried forward."""
    out = np.concatenate([[0.0], np.cumsum(seg)])
    added = out[1:] - out[:-1]
    out[1:] += np.cumsum((out[:-1] - (out[1:] - added)) + (seg - added))
    return out


@lru_cache(maxsize=1)
def _bump_pass():
    """(tables, excess, moments, C): lookup rows of int_{-1}^t v^k phi(v) dv
    by k = 0, 1, 2, of E(V - t)_+^k by k = 1, 2, the absolute moments mu_k
    by k = 0, 1, 2, and the normalizer C."""
    grid = np.linspace(-1.0, 1.0, _TABLE_POINTS)
    x, w = np.polynomial.legendre.leggauss(_SEGMENT_NODES)
    lo, hi = grid[:-1], grid[1:]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x
    raw = _bump_raw(nodes) * w
    seg0, seg1, seg2 = ((raw * nodes**k).sum(axis=1) * half for k in range(3))
    c = 1.0 / seg0.sum()
    # grid[_TABLE_POINTS // 2] is v = 0; by symmetry mu1 = 2 int_0^1 v phi
    mu1 = 2.0 * c * seg1[_TABLE_POINTS // 2:].sum()
    mu2 = c * seg2.sum()

    cdf = _cumulative(seg0)
    cdf /= cdf[-1]                       # pin total mass to exactly one
    h = 1.0 / _TABLE_SCALE
    phi_grid = c * _bump_raw(grid)
    tables = (_hermite_rows(cdf, phi_grid, h),
              _hermite_rows(c * _cumulative(seg1), grid * phi_grid, h),
              _hermite_rows(c * _cumulative(seg2), grid * grid * phi_grid, h))
    # int_t^1 v^k phi(v) dv at the nodes, summed from the top segment down
    up0, up1, up2 = (c * _cumulative(seg[::-1])[::-1] for seg in (seg0, seg1, seg2))
    excess1 = up1 - grid * up0
    excess2 = up2 - 2.0 * grid * up1 + grid * grid * up0
    excess = (_hermite_rows(excess1, -up0, h),
              _hermite_rows(excess2, -2.0 * excess1, h))
    return tables, excess, (1.0, float(mu1), float(mu2)), float(c)


def _table_lookup(table, x: np.ndarray) -> np.ndarray:
    """Evaluate one bump table at x in [-1, 1] (or a few ulp past), or
    NaN; no clamp: the public callers clamp to the reach."""
    c0, c1, c2, c3 = table
    pos = x + 1.0
    pos *= _TABLE_SCALE
    # fmax sends NaN to row 0, where the NaN offset still reaches the result
    idx = np.fmax(pos, 0.0).astype(np.intp)
    s = pos - idx
    out = c3.take(idx)                               # Horner, in place
    for c in (c2, c1, c0):
        out *= s
        out += c.take(idx)
    return out


def _integral(kernel: MollifierKernel, x: np.ndarray, k: int) -> np.ndarray:
    """Partial moment int_{-inf}^x v^k phi(v) dv, with k = 0 the CDF, at
    x within the reach (or a few ulp past), or NaN."""
    if kernel.kind == BUMP:
        return _table_lookup(_bump_pass()[0][k], x)
    if k == 1:
        return -normal_pdf(x)                        # P1 = -phi
    cdf = _special().ndtr(x)
    return cdf if k == 0 else cdf - x * normal_pdf(x)   # P2 = Phi - t*phi


def _excess(kernel: MollifierKernel, x: np.ndarray, k: int) -> np.ndarray:
    """E(V - x)_+^k for k in (1, 2) at x in [0, reach] (or a few ulp
    past), or NaN."""
    if kernel.kind == BUMP:
        return _table_lookup(_bump_pass()[1][k - 1], x)
    tail, phi = _special().ndtr(-x), normal_pdf(x)
    # E(V - s)_+ = phi - s Phi(-s); E(V - s)_+^2 = (1 + s^2) Phi(-s) - s phi
    return phi - x * tail if k == 1 else (1.0 + x * x) * tail - x * phi


def _clamped(kernel: MollifierKernel, t) -> np.ndarray:
    """t clamped to [-reach, reach], where every integral is its limit."""
    x, r = np.asarray(t, dtype=float), kernel.reach
    return np.minimum(np.maximum(x, -r), r)


def kernel_excess(kernel: MollifierKernel, s, k: int) -> float | np.ndarray:
    """Excess moment E(V - s)_+^k of V ~ phi for k in {1, 2}, at s >= 0:
    exactly 0 from the reach on (accepts +inf); NaN below 0 and at NaN."""
    k = _order(k, (1, 2))
    x = _clamped(kernel, s)
    return _as_same(s, _excess(kernel, np.where(x < 0.0, np.nan, x), k))


def kernel_cdf(kernel: MollifierKernel, t) -> float | np.ndarray:
    """Cumulative mass int_{-inf}^t phi(v) dv (accepts +/-inf)."""
    return _as_same(t, _integral(kernel, _clamped(kernel, t), 0))


def kernel_partial_moment(kernel: MollifierKernel, t, k: int) -> float | np.ndarray:
    """Partial moment int_{-inf}^t v^k phi(v) dv for k in {1, 2}."""
    k = _order(k, (1, 2))
    return _as_same(t, _integral(kernel, _clamped(kernel, t), k))
