"""Infinitely differentiable approximations of nonsmooth losses.

A smoothed loss at scale m is the convolution of a catalog loss with
the scaled kernel m*phi(m.), evaluated here as

    value(u)  = int rho(u + v/m) phi(v) dv
    deriv(u)  = int psi(u + v/m) phi(v) dv
    deriv2(u) = -m * int psi(u + v/m) phi'(v) dv

(the second derivative comes from one integration by parts; the
boundary terms vanish because every kernel derivative does).
`PartialMomentSmoother` is the smoothed loss: it evaluates these
integrals exactly, by summing them by parts over the loss pieces, so
that one kernel CDF/partial-moment/density lookup per kink remains
(no terms against the kernel totals: see the class).  `smoothed_loss`
returns one such object per (loss, kernel, scale) in the process.
`smooth_derivative` and `smooth_second_derivative` are the object's
own methods on both kernels.  `smooth_value` is too on the Gaussian
kernel; on the bump kernel it still runs kink-split panel quadrature
(`_value_quadrature`), which the tests also use as their independent
reference.  `expected_derivative_gap` integrates the object's exact
derivative, with quadrature only for its outer expectation, on the
kernel's window at each kink.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .distributions import _as_same
from .errors import InvalidScaleError
from .kernels import (MollifierKernel, kernel_cdf, kernel_integrals,
                      kernel_partial_moment, kernel_value)
from .losses import LossSpec, loss_pieces, loss_subgradient, loss_value
from .quadrature import integrate_rows

_QUAD_TARGET = 1e-11
_GAP_TARGET = 1e-10
# |u| past which PartialMomentSmoother.value returns the loss itself
_FAR = 1e150
# rows per quadrature pass: its node arrays stay cache-sized, no page faults
_CHUNK_ROWS = 64


@lru_cache(maxsize=64)
def smoothed_loss(loss: LossSpec, kernel: MollifierKernel,
                  m: float) -> PartialMomentSmoother:
    """The smoothed loss at scale m: one object per (loss, kernel, m) in
    the process, since a smoother does not change after construction."""
    return PartialMomentSmoother(loss, kernel, m)


# ---------------------------------------------------------------------------
# quadrature path
# ---------------------------------------------------------------------------

def _base_breaks(kernel: MollifierKernel) -> tuple[float, ...]:
    """Fixed panel boundaries in kernel space; the ends bound the window
    that both quadratures, the bump value and the gap, integrate over.
    The bump window is [-0.99, 0.99]: beyond it phi < 3.4e-22 and each
    side holds 6.5e-26 of the kernel's mass, far under any target.
    Gaussian mass beyond +/-8 is below 1e-15; the split at +/-2
    separates the bulk from the tails."""
    if kernel.kind == "bump":
        return (-0.99, 0.99)
    return (-8.0, -2.0, 2.0, 8.0)


def _v_breaks(loss: LossSpec, kernel: MollifierKernel, m: float,
              u: np.ndarray) -> np.ndarray:
    """Panel boundaries in kernel space, one row per evaluation point.

    Every loss kink k maps to v = m*(k - u); kinks outside the window
    clip to its ends and become zero-width panels.
    """
    base = _base_breaks(kernel)
    cols = [np.full(u.shape, b) for b in base]
    for k in loss.kinks:
        cols.append(np.clip(m * (k - u), base[0], base[-1]))
    return np.sort(np.stack(cols, axis=1), axis=1)


def _quad_rows(s: PartialMomentSmoother, u: np.ndarray, integrand) -> np.ndarray:
    out = np.empty(u.shape)
    for start in range(0, u.size, _CHUNK_ROWS):
        chunk = u[start:start + _CHUNK_ROWS]
        breaks = _v_breaks(s.loss, s.kernel, s.m, chunk)
        uc = chunk[:, None]

        def f(v, uc=uc):
            return integrand(uc + v / s.m, v)

        out[start:start + _CHUNK_ROWS] = integrate_rows(
            f, breaks, target=_QUAD_TARGET)
    return out


def _value_quadrature(s: PartialMomentSmoother, u: np.ndarray) -> np.ndarray:
    return _quad_rows(s, u, lambda arg, v: loss_value(s.loss, arg)
                      * kernel_value(s.kernel, v))


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def smooth_value(s: PartialMomentSmoother, u) -> float | np.ndarray:
    """Smoothed loss value at u (scalar or array)."""
    if s.kernel.kind == "gaussian":
        return s.value(u)
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    return _as_same(u, _value_quadrature(s, arr))


def smooth_derivative(s: PartialMomentSmoother, u) -> float | np.ndarray:
    """First derivative of the smoothed loss at u."""
    return s.derivative(u)


def smooth_second_derivative(s: PartialMomentSmoother, u) -> float | np.ndarray:
    """Second derivative of the smoothed loss at u (nonnegative, by
    convexity, up to rounding)."""
    return s.second_derivative(u)


def sup_error(s: PartialMomentSmoother, grid) -> float:
    """max over the grid of |smoothed value - exact value|."""
    pts = np.asarray(grid, dtype=float).ravel()
    if pts.size == 0:
        raise ValueError("grid must be nonempty")
    return float(np.max(np.abs(smooth_value(s, pts) - loss_value(s.loss, pts))))


# ---------------------------------------------------------------------------
# the smoothed loss: exact piecewise reduction
# ---------------------------------------------------------------------------

class PartialMomentSmoother:
    """The smoothed loss: a (loss, kernel, scale) triple whose own methods
    evaluate the smoothing integrals exactly, by summation by parts.

    Catalog losses are piecewise quadratic, so each integral collapses
    onto kernel CDF C, partial moments P1, P2 and density phi evaluated
    at the kinks k_i mapped into kernel space, t_i = m*(k_i - u).
    Summing by parts over the pieces leaves the last piece's
    coefficients (alpha_K, s_K) against the kernel's unit mass, minus
    one term per kink carrying the coefficient jumps across it:

        value  = alpha_K + s_K u
                 - sum_i [(da_i + ds_i u) C + ds_i P1/m
                          + dq_i/2 (u^2 C + 2u P1/m + P2/m^2)]
        deriv  = s_K - sum_i [(ds_i + dq_i u) C + dq_i P1/m]
        deriv2 = sum_i [m (ds_i + dq_i k_i) phi - dq_i C]

    (the last line uses t_i + m u = m k_i; ds_i + dq_i k_i is the
    subgradient jump at k_i).  Terms of q_K and s_K against the kernel
    totals M1, M2 vanish: every catalog loss is Lipschitz, so linear on
    its last piece (q_K = 0), and both kernels are symmetric (M1 = 0).
    This is algebraically the same object as the quadrature path (the
    tests pin the two together) but costs one kernel lookup per kink
    and point, which is what makes Newton iterations over full residual
    vectors cheap.
    """

    def __init__(self, loss: LossSpec, kernel: MollifierKernel, m: float):
        if not 0 < m < np.inf:
            raise InvalidScaleError(
                f"smoothing scale must be positive and finite, got {m}")
        self.loss = loss
        self.kernel = kernel
        self.m = float(m)
        pieces = np.array(loss_pieces(loss))     # rows (lo, hi, alpha, slope, quad)
        kinks = pieces[1:, 0]
        self._kinks = kinks[:, None]
        self._alpha, self._slope = pieces[-1, 2:4]
        self._d_alpha, self._d_slope, self._d_quad = np.diff(pieces[:, 2:], axis=0).T
        self._d_psi = self.m * (self._d_slope + self._d_quad * kinks)
        self._has_jump = bool(np.any(self._d_psi))
        self._has_quad = bool(np.any(pieces[:, 4]))

    def value(self, u) -> float | np.ndarray:
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        far = np.abs(arr) > _FAR
        if np.count_nonzero(far):
            # the sums meet inf - inf at +/-inf, and a quadratic piece's
            # u^2 terms overflow past ~1.3e154; far from every kink the
            # smoothed loss is the loss itself
            near = self._value(np.where(far, 0.0, arr))
            return _as_same(u, np.where(far, loss_value(self.loss, arr), near))
        return _as_same(u, self._value(arr))

    def _value(self, arr: np.ndarray) -> np.ndarray:
        m = self.m
        t = m * (self._kinks - arr)
        if self._has_quad:
            cdf, pm1, pm2 = kernel_integrals(self.kernel, t, (0, 1, 2))
        else:
            cdf, pm1 = kernel_integrals(self.kernel, t, (0, 1))
        pm1 = pm1 / m
        ucdf = arr * cdf
        acc = (self._alpha + self._slope * arr
               - self._d_alpha @ cdf - self._d_slope @ (ucdf + pm1))
        if self._has_quad:
            pm2 = pm2 / (m * m)
            acc -= 0.5 * (self._d_quad @ (arr * (ucdf + 2.0 * pm1) + pm2))
        return acc

    def derivative(self, u) -> float | np.ndarray:
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        t = self.m * (self._kinks - arr)
        return _as_same(u, self._gradient(arr, t, kernel_cdf(self.kernel, t)))

    def second_derivative(self, u) -> float | np.ndarray:
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        t = self.m * (self._kinks - arr)
        cdf = kernel_cdf(self.kernel, t) if self._has_quad else None
        return _as_same(u, self._curvature(t, cdf))

    def curvature_pair(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(derivative, second derivative) sharing one kernel lookup."""
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        t = self.m * (self._kinks - arr)
        cdf = kernel_cdf(self.kernel, t)
        return self._gradient(arr, t, cdf), self._curvature(t, cdf)

    def _curvature(self, t: np.ndarray, cdf: np.ndarray | None) -> np.ndarray:
        """The second derivative, given t = m*(kinks - arr) and C(t), which
        only a quadratic piece reads; phi only where a subgradient jumps."""
        curv = self._d_psi @ kernel_value(self.kernel, t) if self._has_jump else 0.0
        return curv - self._d_quad @ cdf if self._has_quad else curv

    def _gradient(self, arr: np.ndarray, t: np.ndarray,
                  cdf: np.ndarray) -> np.ndarray:
        """The derivative at arr, given t = m*(kinks - arr) and C(t)."""
        grad = self._slope - self._d_slope @ cdf
        if self._has_quad:
            pm1 = kernel_partial_moment(self.kernel, t, 1) / self.m
            infinite = np.isinf(arr)
            if np.count_nonzero(infinite):
                # u*C meets inf*0 there; the limit is the loss's slope
                grad -= self._d_quad @ (np.where(infinite, 0.0, arr) * cdf + pm1)
                grad = np.where(infinite, loss_subgradient(self.loss, arr), grad)
            else:
                grad -= self._d_quad @ (arr * cdf + pm1)
        return grad


# ---------------------------------------------------------------------------
# expectation diagnostics
# ---------------------------------------------------------------------------

def expected_derivative_gap(loss: LossSpec, kernel: MollifierKernel, m: float,
                            density) -> float:
    """E|rho_m'(e) - psi(e)| for e distributed as `density`.

    Integrates |smoothed derivative - subgradient| * pdf by panel
    quadrature over the kernel's window at each kink, split at the kink.
    Beyond the windows the integrand is exactly 0 on the bump (past
    k +/- 1/m) and below 6e-16 * pdf per unit subgradient jump on the
    Gaussian, so the density's shape never decides the panels.
    """
    s = smoothed_loss(loss, kernel, m)
    breaks = np.unique([k + b / m for k in loss.kinks
                        for b in (0.0, *_base_breaks(kernel))])

    def row_f(v):
        u = v.ravel()
        gap = np.abs(s.derivative(u) - loss_subgradient(loss, u))
        return (gap * density.pdf(u)).reshape(v.shape)

    return float(integrate_rows(row_f, breaks[None, :], target=_GAP_TARGET)[0])
