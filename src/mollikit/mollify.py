"""Infinitely differentiable approximations of nonsmooth losses.

A smoothed loss at scale m is the convolution of a catalog loss with
the scaled kernel m*phi(m.):

    value(u)  = int rho(u + v/m) phi(v) dv
    deriv(u)  = int psi(u + v/m) phi(v) dv
    deriv2(u) = -m * int psi(u + v/m) phi'(v) dv

(the second derivative comes from one integration by parts; the
boundary terms vanish because every kernel derivative does).
`PartialMomentSmoother` is the smoothed loss, and `terms(u, orders)` is
its one evaluator: it sums these integrals by parts over the loss
pieces, so that the orders it returns share one kernel CDF /
partial-moment lookup per kink and point, and read phi only where a
subgradient jumps.  `value`, `derivative`, `second_derivative` and
`curvature_pair` are one call to it each.  Each smoother decides once
whether its kink distances t = m*(k - u) can overflow (only for m above
about 1e158), so that ordinary scales never switch numpy's error state.
`smoothed_loss` returns one such object per (loss, kernel, scale) in the
process.

`integrate_rows` is the module's fixed panel quadrature.  It serves
`expected_derivative_gap`, which integrates the smoother's derivative
against an error density, and `smooth_value` on the bump kernel, which
still runs kink-split quadrature (`_value_quadrature`); the tests use
that quadrature as their independent reference.  On each bump-value
panel the integrand is a polynomial of degree at most 2 in v times
phi(v), so the rule's accuracy depends on neither u nor m.
"""
from __future__ import annotations

from functools import lru_cache
from math import isfinite

import numpy as np

from .distributions import _as_same
from .errors import InvalidGridError, InvalidScaleError
# kernel_cdf and kernel_partial_moment: perfbench/tracing.py binds them here
from .kernels import (MollifierKernel, kernel_cdf, kernel_integrals,  # noqa: F401
                      kernel_partial_moment, kernel_value)
from .losses import (LossSpec, loss_curvature, loss_pieces, loss_subgradient,
                     loss_value)

# |u| past which every order of PartialMomentSmoother.terms is its limit;
# from _MIN_SCALE on, every kink's t = m*(k - u) is then past |t| = 1e10
_FAR = 1e150
_MIN_SCALE = 1e-140
# rows per quadrature pass: its node arrays stay cache-sized, no page faults
_CHUNK_ROWS = 64
# most panels the derivative gap integrates over: 1.6e6 integrand points
_GAP_PANELS = 1 << 13
# integrate_rows: 50 Gauss-Legendre nodes on each of _PARTS parts of a panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(50)
_PARTS = 4


@lru_cache(maxsize=64)
def smoothed_loss(loss: LossSpec, kernel: MollifierKernel,
                  m: float) -> PartialMomentSmoother:
    """The smoothed loss at scale m: one object per (loss, kernel, m) in
    the process, since a smoother does not change after construction."""
    return PartialMomentSmoother(loss, kernel, m)


# ---------------------------------------------------------------------------
# quadrature path
# ---------------------------------------------------------------------------

def integrate_rows(f, breaks):
    """Batched panel quadrature by one fixed rule.

    breaks: (B, K) array, sorted along axis 1; kinks of the integrand
    must be among them, and repeated values make zero-width panels,
    which contribute nothing.  Every panel is cut into 4 equal parts
    with a 50-node Gauss-Legendre rule on each: 200 nodes per panel,
    exact on polynomials of degree below 100 per part.  There is no
    accuracy target; the caller's panels decide the accuracy.  f maps a
    (B, T) node array to integrand values of the same shape; row i of
    the nodes always belongs to row i of breaks, so a row's value never
    depends on the other rows.  Returns a (B,) array.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[:, :-1], breaks[:, 1:]
    frac = np.arange(_PARTS) / _PARTS
    half = 0.5 * ((hi - lo) / _PARTS)[..., None]             # (B, P, 1)
    center = lo[..., None] + (hi - lo)[..., None] * frac + half  # (B, P, parts)
    nodes = center[..., None] + half[..., None] * _GL_X      # (B, P, parts, N)
    vals = f(nodes.reshape(nodes.shape[0], -1)).reshape(nodes.shape)
    return np.einsum("bpsn,n,bps->b", vals, _GL_W,
                     np.broadcast_to(half, vals.shape[:3]))


def _base_breaks(kernel: MollifierKernel) -> tuple[float, ...]:
    """Fixed panel boundaries in kernel space; the ends bound the window
    that both quadratures, the bump value and the gap, integrate over.
    The bump window is [-0.99, 0.99]: beyond it phi < 3.4e-22 and each
    side holds 6.5e-26 of the kernel's mass, far under double rounding.
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

        out[start:start + _CHUNK_ROWS] = integrate_rows(f, breaks)
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
    # past _FAR the value is the loss itself, as in s.value; at +/-inf
    # the rule would meet inf * 0 on the zero-width panels
    far = np.abs(arr) > _FAR
    near = _value_quadrature(s, np.where(far, 0.0, arr))
    return _as_same(u, np.where(far, loss_value(s.loss, arr), near))


def smooth_derivative(s: PartialMomentSmoother, u) -> float | np.ndarray:
    """First derivative of the smoothed loss at u."""
    return s.derivative(u)


def sup_error(s: PartialMomentSmoother, grid) -> float:
    """max over the grid of |smoothed value - exact value|, on a
    nonempty grid of finite points."""
    pts = np.asarray(grid, dtype=float).ravel()
    if pts.size == 0 or not np.all(np.isfinite(pts)):
        raise InvalidGridError("grid must be nonempty and finite")
    return float(np.max(np.abs(smooth_value(s, pts) - loss_value(s.loss, pts))))


# ---------------------------------------------------------------------------
# the smoothed loss: exact piecewise reduction
# ---------------------------------------------------------------------------

def check_scale(loss: LossSpec, m: float) -> None:
    """Raise InvalidScaleError unless `loss` can be smoothed at scale m:
    m finite and at least _MIN_SCALE (below it a point past |u| = _FAR
    can still lie near a kink in kernel space, so the far rule would
    not hold), and m times each subgradient jump finite (the second
    derivative's weights)."""
    if not _MIN_SCALE <= m < np.inf:
        raise InvalidScaleError(f"smoothing scale must be finite and at "
                                f"least {_MIN_SCALE:g}, got {m}")
    if not all(isfinite(float(m) * mass) for _, mass in loss_curvature(loss).jumps):
        raise InvalidScaleError(f"smoothing scale {m:g} is too large: m times "
                                "the subgradient's jumps overflows")


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
    `terms` is the one evaluator; the other methods are calls to it.
    This is algebraically the same object as the quadrature path (the
    tests pin the two together) but costs one kernel lookup per kink
    and point, which is what makes Newton iterations over full residual
    vectors cheap.
    """

    def __init__(self, loss: LossSpec, kernel: MollifierKernel, m: float):
        check_scale(loss, m)
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
        # orders[0] reads the most kernel integrals (C, P1, P2): the value
        # reads C, P1 and P2 on a quadratic piece, and each further order
        # one table fewer
        need = (3, 2, 1) if self._has_quad else (2, 1, 0)
        self._reads = tuple((0, 1, 2)[:n] for n in need)
        # t = m*(k - u) can overflow for |u| <= _FAR only at m above about
        # 1e158, and only then does `terms` silence numpy's overflow
        # warning; Python floats overflow to inf quietly
        self._t_overflows = not isfinite(self.m * (max(map(abs, loss.kinks)) + _FAR))
        # bounds |second derivative|: |dq_i C| <= |dq_i| and phi <= phi(0)
        self.curvature_bound = (sum(map(abs, self._d_psi.tolist()))
                                * kernel_value(kernel, 0.0)
                                + sum(map(abs, self._d_quad.tolist())))

    def terms(self, u, orders: tuple[int, ...]) -> tuple:
        """The derivatives of the given orders at u (0 is the value), from
        one kernel lookup; orders is an increasing tuple drawn from
        (0, 1, 2).  Each is a float for scalar u, else an array.  Past
        |u| = _FAR every order is its limit, far from every kink: the
        loss, its subgradient and 0."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        if scalar:
            arr = arr.reshape(1)
        # one reduction finds whether any point is far or NaN; the mask
        # below leaves a NaN near, evaluated as an ordinary point
        any_far = not np.abs(arr).max(initial=0.0) <= _FAR
        if any_far:
            far = np.abs(arr) > _FAR
            # the sums meet inf - inf at +/-inf, and a quadratic piece's
            # u^2 terms overflow past ~1.3e154: far points are evaluated at 0
            x = np.where(far, 0.0, arr)
        else:
            x = arr
        m = self.m
        if self._t_overflows:
            with np.errstate(over="ignore"):     # t = +/-inf is the exact limit
                t = m * (self._kinks - x)
        else:
            t = m * (self._kinks - x)
        ks = self._reads[orders[0]]
        tab = kernel_integrals(self.kernel, t, ks) if ks else ()
        out = []
        for order in orders:
            if order == 0:
                cdf, pm1 = tab[0], tab[1] / m
                ucdf = x * cdf
                res = (self._alpha + self._slope * x
                       - self._d_alpha @ cdf - self._d_slope @ (ucdf + pm1))
                if self._has_quad:
                    res -= 0.5 * (self._d_quad @ (x * (ucdf + 2.0 * pm1)
                                                  + tab[2] / (m * m)))
            elif order == 1:
                res = self._slope - self._d_slope @ tab[0]
                if self._has_quad:
                    res -= self._d_quad @ (x * tab[0] + tab[1] / m)
            else:
                res = (self._d_psi @ kernel_value(self.kernel, t)
                       if self._has_jump else 0.0)
                if self._has_quad:
                    res = res - self._d_quad @ tab[0]
            if any_far:
                limit = (loss_value(self.loss, arr) if order == 0 else
                         loss_subgradient(self.loss, arr) if order == 1 else 0.0)
                res = np.where(far, limit, res)
            out.append(res)
        if scalar:
            out = [_as_same(u, r) for r in out]
        return tuple(out)

    def value(self, u) -> float | np.ndarray:
        return self.terms(u, (0,))[0]

    def derivative(self, u) -> float | np.ndarray:
        return self.terms(u, (1,))[0]

    def second_derivative(self, u) -> float | np.ndarray:
        return self.terms(u, (2,))[0]

    def curvature_pair(self, u) -> tuple:
        """(derivative, second derivative) from one kernel lookup."""
        return self.terms(u, (1, 2))


# ---------------------------------------------------------------------------
# expectation diagnostics
# ---------------------------------------------------------------------------

def expected_derivative_gap(loss: LossSpec, kernel: MollifierKernel, m: float,
                            density) -> float:
    """E|rho_m'(e) - psi(e)| for e distributed as `density`.

    Integrates |smoothed derivative - subgradient| * pdf by the fixed
    panel rule over the kernel's window at each kink, split at the kink,
    with every panel cut to at most 2 wide so that the density is
    resolved at any scale.  Beyond the windows the integrand is exactly
    0 on the bump (past k +/- 1/m) and below 6e-16 * pdf per unit
    subgradient jump on the Gaussian, so the density's shape never
    decides the panels.  A scale whose windows need more than
    _GAP_PANELS panels raises InvalidScaleError: below m ~ 9.8e-4 on
    the Gaussian kernel and 1.2e-4 on the bump, for one kink.
    """
    s = smoothed_loss(loss, kernel, m)
    edges = np.unique([k + b / m for k in loss.kinks
                       for b in (0.0, *_base_breaks(kernel))])
    cuts = np.ceil(np.diff(edges) / 2.0)
    if cuts.sum() > _GAP_PANELS:
        raise InvalidScaleError(
            f"smoothing scale {m:g} is too small for the derivative gap: "
            f"it needs {cuts.sum():.3g} panels, more than {_GAP_PANELS}")
    breaks = np.concatenate(
        [np.linspace(lo, hi, int(n), endpoint=False)
         for lo, hi, n in zip(edges[:-1], edges[1:], cuts)] + [edges[-1:]])

    def row_f(v):
        u = v.ravel()
        gap = np.abs(s.derivative(u) - loss_subgradient(loss, u))
        return (gap * density.pdf(u)).reshape(v.shape)

    return float(integrate_rows(row_f, breaks[None, :])[0])
