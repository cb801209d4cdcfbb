"""Independent references the tests compare the library against.

The library evaluates the smoothed loss's derivatives exactly, as the
loss's subgradient (or 0) plus the smoothing bias, from kernel
integrals at the kinks (`mollify.PartialMomentSmoother`).  These are
the same integrals by kink-split panel quadrature over the kernel:

    deriv(u)  = int psi(u + v/m) phi(v) dv
    deriv2(u) = -m * int psi(u + v/m) phi'(v) dv

on the library's own panel layout (`mollify._quad_rows`), so they share
its windows and chunks but none of its closed forms.
`kernel_derivative` is phi', which only the second-derivative reference
needs, and `integrate` is one scalar integral by `scipy.integrate.quad`,
adaptive and independent of the library's fixed rule.
The t4 CDF and quantile are closed forms, independent of the scipy
routines the library calls (scipy.stats.t calls the same ones).
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from mollikit import mollify
from mollikit.distributions import _as_same
from mollikit.kernels import MollifierKernel, kernel_value
from mollikit.losses import loss_subgradient


def kernel_derivative(kernel: MollifierKernel, v) -> float | np.ndarray:
    """First derivative phi'(v); zero outside the bump support."""
    x = np.asarray(v, dtype=float)
    phi = kernel_value(kernel, x)
    if kernel.kind == "gaussian":
        return _as_same(v, -x * phi)
    # where phi is 0, the gap may overflow and g may be inf or NaN
    with np.errstate(all="ignore"):
        g = -2.0 * x / (1.0 - x * x)**2              # (log phi)'
        return _as_same(v, np.where(phi > 0.0, phi * g, 0.0))


def integrate(f, breakpoints, target=1e-12):
    """Integrate a vectorized scalar function over [b_0, b_K].

    breakpoints is an increasing sequence; f maps an ndarray of points
    to an ndarray of values.  Each panel is one adaptive
    `scipy.integrate.quad` call to the absolute `target`, or 1e-13
    relative to the panel's value where rounding keeps the absolute one
    out of reach.  Returns a float.
    """
    breaks = np.asarray(breakpoints, dtype=float)
    if breaks.size < 2:
        raise ValueError("need at least two breakpoints")

    def point_f(x):
        return float(np.asarray(f(np.array([x])), dtype=float)[0])

    return float(sum(quad(point_f, lo, hi, epsabs=target, epsrel=1e-13,
                          limit=200)[0]
                     for lo, hi in zip(breaks[:-1], breaks[1:])))


def derivative_quadrature(s: mollify.PartialMomentSmoother,
                          u: np.ndarray) -> np.ndarray:
    """rho_m'(u) on a 1-d array, by quadrature."""
    return mollify._quad_rows(s, u, lambda arg, v: loss_subgradient(s.loss, arg)
                              * kernel_value(s.kernel, v))


def second_quadrature(s: mollify.PartialMomentSmoother,
                      u: np.ndarray) -> np.ndarray:
    """rho_m''(u) on a 1-d array, by quadrature against phi'."""
    return -s.m * mollify._quad_rows(
        s, u, lambda arg, v: loss_subgradient(s.loss, arg)
        * kernel_derivative(s.kernel, v))


def t4_quantile_closed_form(p) -> np.ndarray:
    """t4 quantile in closed form (Shaw 2006, J. Comput. Finance 9(4)).

    With alpha = 4p(1-p) the quantile is
    sign(p - 1/2) * 2 * sqrt(cos(arccos(sqrt(alpha))/3) / sqrt(alpha) - 1).
    """
    p = np.asarray(p, dtype=float)
    root = np.sqrt(4.0 * p * (1.0 - p))
    return np.sign(p - 0.5) * 2.0 * np.sqrt(
        np.cos(np.arccos(root) / 3.0) / root - 1.0)


def t4_cdf_closed_form(x) -> np.ndarray:
    """t4 CDF in closed form: F(x) = (1+s)^2 (2-s)/4 with s = x/r and
    r = sqrt(4 + x^2).  On the left 1 + s would cancel, so it is taken
    as 4/(r(r - x)); on the right F(x) = 1 - F(-x)."""
    x = np.asarray(x, dtype=float)
    neg = -np.abs(x)
    r = np.sqrt(4.0 + neg * neg)
    left = (4.0 / (r * (r - neg)))**2 * (2.0 - neg / r) / 4.0
    return np.where(x > 0.0, 1.0 - left, left)
