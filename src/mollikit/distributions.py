"""Error distributions used by the estimation and simulation layers.

The normal quantile is scipy's `ndtri`; the t distribution with 4
degrees of freedom takes its CDF and quantile from scipy's `stdtr` and
`stdtrit`.  `scipy.special` loads on the first call that needs it, so
importing this module (and the CLI) does not pay for it.  A density is
only its pdf and CDF: quadrature against it chooses its own
panels.  Each pdf caps |x| past the point where it rounds to 0, so x*x
cannot overflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt, pi
from typing import Callable

import numpy as np

from .errors import InputError

_SQRT2PI = sqrt(2.0 * pi)
_NORMAL_CAP = 40.0     # the normal pdf rounds to 0 past |x| ~ 38.58
_T4_CAP = 1e100        # the t4 pdf rounds to 0 past |x| ~ 8.5e64


@lru_cache(maxsize=1)
def _special():
    # scipy.special is slow to import and neither the bump kernel nor the
    # CLI's start uses it, so it loads on the first call that does; the
    # cache spares every later call the import statement
    import scipy.special
    return scipy.special


@dataclass(frozen=True)
class ErrorDensity:
    """A univariate error distribution with smooth density."""

    pdf: Callable
    cdf: Callable


def _as_same(template, arr):
    """Return arr as a float if template was scalar, else as ndarray."""
    if isinstance(template, np.ndarray) and template.ndim or np.ndim(template):
        return arr
    return np.asarray(arr, dtype=float).item()


def normal_pdf(x):
    """Standard normal density; NaN at NaN."""
    a = np.minimum(np.abs(np.asarray(x, dtype=float)), _NORMAL_CAP)
    return _as_same(x, np.exp(-0.5 * a * a) / _SQRT2PI)


def normal_quantile(p) -> float | np.ndarray:
    """Standard normal quantile (scipy's `ndtri`); -inf/inf at 0 and 1."""
    parr = np.asarray(p, dtype=float)
    if np.any((parr < 0.0) | (parr > 1.0)):
        raise InputError("probability outside [0, 1]")
    return _as_same(p, _special().ndtri(parr))


def t4_pdf(x):
    a = np.minimum(np.abs(np.asarray(x, dtype=float)), _T4_CAP)
    return _as_same(x, 0.375 * (1.0 + 0.25 * a * a) ** -2.5)


def t4_cdf(x):
    """CDF of the t distribution with 4 degrees of freedom (scipy's
    `stdtr`, accurate in both tails)."""
    x = np.asarray(x, dtype=float)
    return _as_same(x, _special().stdtr(4.0, x))


def t4_quantile(p) -> float | np.ndarray:
    """t4 quantile (scipy's `stdtrit`)."""
    parr = np.asarray(p, dtype=float)
    if np.any((parr <= 0.0) | (parr >= 1.0)):
        raise InputError("probability outside (0, 1)")
    return _as_same(p, _special().stdtrit(4.0, parr))


def standard_normal() -> ErrorDensity:
    return ErrorDensity(pdf=normal_pdf,
                        cdf=lambda x: _special().ndtr(np.asarray(x, dtype=float)))


def student_t4() -> ErrorDensity:
    return ErrorDensity(pdf=t4_pdf, cdf=t4_cdf)
