"""Infinitely differentiable approximations of nonsmooth losses.

A smoothed loss at scale m is the convolution of a catalog loss with
the scaled kernel m*phi(m.):

    value(u)  = int rho(u + v/m) phi(v) dv
    deriv(u)  = int psi(u + v/m) phi(v) dv
    deriv2(u) = -m * int psi(u + v/m) phi'(v) dv

(the second derivative comes from one integration by parts; the
boundary terms vanish because every kernel derivative does).
`PartialMomentSmoother` is the smoothed loss, and `terms(u, orders)` is
its one evaluator: it writes each order as the loss's own (rho, psi, 0)
plus the smoothing bias, a sum over the kinks of kernel integrals at
t = m*(k - u), so that each order reads one kernel integral and a
one-kink value reads one kernel table.  Every bias term vanishes past
the kernel's reach, so far from the kinks and at +/-inf each order is
its limit with no special case; each kink distance k - u
is clipped to the reach over m before it is scaled, so t is finite at
every scale and no smoother switches numpy's error state.  `value`,
`derivative`, `second_derivative` and `curvature_pair` are one call to
`terms` each.  `smoothed_loss` returns one such object
per (loss, kernel, scale) in the process.

`integrate_rows` is the module's fixed panel quadrature.  It serves
`expected_derivative_gap`, which integrates the smoother's derivative
against an error density, and `smooth_value` on the bump kernel, which
still runs kink-split quadrature (`_value_quadrature`); the tests use
that quadrature as their independent reference.  Only the kinks inside
the kernel's window split a row, and rows are integrated in groups by
how many kinks they keep, so no panel is empty.  On each bump-value
panel the integrand is a polynomial of degree at most 2 in v times
phi(v), so the rule's accuracy depends on neither u nor m.
"""
from __future__ import annotations

from functools import lru_cache
from math import isfinite

import numpy as np

from .distributions import _as_same
from .errors import InputError
# kernel_cdf and kernel_partial_moment: perfbench/tracing.py binds them here
from .kernels import (MollifierKernel, _excess, _integral,  # noqa: F401
                      kernel_abs_moment, kernel_cdf, kernel_partial_moment,
                      kernel_value)
from .losses import (LossSpec, loss_curvature, loss_pieces, loss_subgradient,
                     loss_value)

# smooth_value takes the loss itself past |u| = _FAR; from _MIN_SCALE on,
# such a point is still past |t| = 1e10 from every kink in kernel space
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


def _quad_rows(s: PartialMomentSmoother, u: np.ndarray, integrand) -> np.ndarray:
    """int integrand(u + v/m, v) dv over the kernel's window, one row per
    point of the 1-d array u, by `integrate_rows`.

    Every loss kink k maps to v = m*(k - u), and only the kinks strictly
    inside the window split a row, so no panel is empty.  Rows are
    grouped by how many kinks they keep, and each group is integrated in
    _CHUNK_ROWS-row chunks on breaks of len(base) + count columns.
    """
    base = _base_breaks(s.kernel)
    t = s.m * (np.array(s.loss.kinks) - u[:, None])
    inside = (t > base[0]) & (t < base[-1])
    # a dropped kink becomes base[-1] and sorts to the end, past the
    # columns its group keeps
    breaks = np.sort(np.concatenate(
        [np.broadcast_to(base, (u.size, len(base))),
         np.where(inside, t, base[-1])], axis=1), axis=1)
    count = inside.sum(axis=1)
    out = np.empty(u.shape)
    for c in np.unique(count):
        rows = np.flatnonzero(count == c)
        for start in range(0, rows.size, _CHUNK_ROWS):
            idx = rows[start:start + _CHUNK_ROWS]
            uc = u[idx, None]

            def f(v, uc=uc):
                return integrand(uc + v / s.m, v)

            out[idx] = integrate_rows(f, breaks[idx, :len(base) + c])
    return out


def _value_quadrature(s: PartialMomentSmoother, u: np.ndarray) -> np.ndarray:
    return _quad_rows(s, u, lambda arg, v: loss_value(s.loss, arg)
                      * kernel_value(s.kernel, v))


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def smooth_value(s: PartialMomentSmoother, u) -> float | np.ndarray:
    """Smoothed loss value at u (scalar or array of any shape)."""
    if s.kernel.kind == "gaussian":
        return s.value(u)
    arr = np.asarray(u, dtype=float)
    flat = arr.ravel()                  # the quadrature takes one row per point
    # past _FAR the value is the loss itself, as in s.value
    far = np.abs(flat) > _FAR
    near = _value_quadrature(s, np.where(far, 0.0, flat))
    out = np.where(far, loss_value(s.loss, flat), near)
    return _as_same(u, out.reshape(arr.shape))


def smooth_derivative(s: PartialMomentSmoother, u) -> float | np.ndarray:
    """First derivative of the smoothed loss at u."""
    return s.derivative(u)


def sup_error(s: PartialMomentSmoother, grid) -> float:
    """max over the grid of |smoothed value - exact value|, on a
    nonempty grid of finite points."""
    pts = np.asarray(grid, dtype=float).ravel()
    if pts.size == 0 or not np.all(np.isfinite(pts)):
        raise InputError("grid must be nonempty and finite")
    return float(np.max(np.abs(smooth_value(s, pts) - loss_value(s.loss, pts))))


# ---------------------------------------------------------------------------
# the smoothed loss: the loss plus its bias
# ---------------------------------------------------------------------------

def check_scale(loss: LossSpec, m: float) -> None:
    """Raise InputError unless `loss` can be smoothed at scale m:
    m finite and at least _MIN_SCALE (below it, `smooth_value`'s far
    mask, which takes the loss itself past |u| = _FAR, could catch a
    point still within the kernel's reach of a kink), and m times each
    subgradient jump finite (the second derivative's weights)."""
    if not _MIN_SCALE <= m < np.inf:
        raise InputError(f"smoothing scale must be finite and at "
                         f"least {_MIN_SCALE:g}, got {m}")
    if not all(isfinite(float(m) * mass) for _, mass in loss_curvature(loss).jumps):
        raise InputError(f"smoothing scale {m:g} is too large: m times "
                         "the subgradient's jumps overflows")


class PartialMomentSmoother:
    """The smoothed loss: a (loss, kernel, scale) triple whose own methods
    evaluate the smoothing integrals exactly, as the loss plus its bias.

    Catalog losses are piecewise quadratic: at kink k_i the subgradient
    jumps by a_i and the curvature by b_i.  Each kink maps into kernel
    space as t_i = m*(k_i - u).  With V ~ phi, the excess moments
    T1(s) = E(V - s)_+ and T2(s) = E(V - s)_+^2 (`kernel_excess`), and
    Q(t) = T2(|t|) for t >= 0, mu2 - T2(|t|) for t < 0:

        value  = rho(u) + sum_i [a_i T1(|t_i|)/m + b_i Q(t_i)/(2 m^2)]
        deriv  = psi(u) + sum_i [a_i ([t_i > 0] - C(t_i)) + b_i T1(|t_i|)/m]
        deriv2 = sum_i [a_i m phi(t_i) - b_i C(t_i)]

    The sums are the bias rho_m - rho and its derivatives.  In deriv2,
    b_i (1 - C) sums to -b_i C since the b_i sum to 0: every catalog
    loss is linear on both outer pieces.  A loss without a quadratic
    piece has psi(u) + sum_i a_i [t_i > 0] = s_K, its last slope, so its
    derivative is s_K - sum_i a_i C(t_i).  Every term is bounded and
    vanishes once |t_i| is past the kernel's reach (1 on the bump, 40 on
    the Gaussian, `MollifierKernel.reach`), so far from every kink, and
    at +/-inf, the orders are the loss's own rho, psi and 0 by
    construction.  So `terms` clips each distance k_i - u to +/- reach/m
    before scaling it: a far t_i is then the reach to a few ulp, where
    the kernel lookups already read their limits, t is finite at every
    m, and the lookups need no clamp of their own.  `terms` is the one
    evaluator; the other methods are calls to it.  It is the same object
    as the quadrature path (the tests pin the two together), but a
    one-kink value costs one kernel table lookup per point, which is what
    makes Newton iterations over full residual vectors cheap.
    """

    def __init__(self, loss: LossSpec, kernel: MollifierKernel, m: float):
        check_scale(loss, m)
        self.loss = loss
        self.kernel = kernel
        self.m = m = float(m)
        pieces = np.array(loss_pieces(loss))     # rows (lo, hi, alpha, slope, quad)
        kinks = pieces[1:, 0]
        self._kinks = kinks[:, None]
        self._slope = pieces[-1, 3]
        _, d_slope, self._d_quad = np.diff(pieces[:, 2:], axis=0).T
        self._jump = d_slope + self._d_quad * kinks
        self._d_psi = m * self._jump
        self._jump_m = self._jump / m
        self._mu2 = kernel_abs_moment(kernel, 2)
        self._quad = bool(np.any(pieces[:, 4]))
        # the kernel's reach in u-space: kink distances are clipped to it
        self._reach_m = kernel.reach / m
        # bounds |second derivative|: |dq_i C| <= |dq_i| and phi <= phi(0)
        self.curvature_bound = (sum(map(abs, self._d_psi.tolist()))
                                * kernel_value(kernel, 0.0)
                                + sum(map(abs, self._d_quad.tolist())))

    def terms(self, u, orders: tuple[int, ...]) -> tuple:
        """The derivatives of the given orders at u (0 is the value), each
        from one kernel integral; orders is an increasing tuple drawn from
        (0, 1, 2).  Each is a float for scalar u, else an array of u's
        shape, whatever its number of axes.  Far from every kink, and at
        +/-inf, every order is its limit: the loss, its subgradient and 0."""
        arr = np.asarray(u, dtype=float)
        if arr.ndim > 1:                # the kinks broadcast along one axis
            return tuple(res.reshape(arr.shape)
                         for res in self.terms(arr.ravel(), orders))
        # t = m*(k - u) from k - u clipped to the reach (NaN stays NaN): a
        # far t is the reach to a few ulp, finite at every scale
        m, r = self.m, self._reach_m
        t = self._kinks - arr
        np.maximum(t, -r, out=t)
        np.minimum(t, r, out=t)
        t *= m
        # every catalog loss has subgradient jumps (abs, check, relu) or a
        # quadratic piece (Huber), never both, so each order reads one
        # kernel integral: T1, C and phi for orders 0, 1 and 2 of the
        # first kind, T2, T1 and C for Huber
        out = []
        for order in orders:
            if order == 0 and self._quad:
                # scaled after the sum, so that the bias inside the
                # quadratic piece, mu2 / (2 m^2), is correctly rounded
                t2 = _excess(self.kernel, np.abs(t), 2)
                q = np.where(t < 0.0, self._mu2 - t2, t2)
                res = loss_value(self.loss, arr) + self._d_quad.dot(q) / (2.0 * m * m)
            elif order == 0:
                t1 = _excess(self.kernel, np.abs(t), 1)
                res = loss_value(self.loss, arr) + self._jump_m.dot(t1)
            elif order == 1 and self._quad:
                res = (loss_subgradient(self.loss, arr)
                       + self._d_quad.dot(_excess(self.kernel, np.abs(t), 1)) / m)
            elif order == 1:
                # psi(u) + sum_i a_i [t_i > 0] is the last slope at every u
                res = self._slope - self._jump.dot(_integral(self.kernel, t, 0))
            elif self._quad:
                res = -self._d_quad.dot(_integral(self.kernel, t, 0))
            else:
                res = self._d_psi.dot(kernel_value(self.kernel, t))
            out.append(res)
        if arr.ndim == 0:
            out = [_as_same(u, res) for res in out]
        return tuple(out)

    def value(self, u) -> float | np.ndarray:
        return self.terms(u, (0,))[0]

    def derivative(self, u) -> float | np.ndarray:
        return self.terms(u, (1,))[0]

    def second_derivative(self, u) -> float | np.ndarray:
        return self.terms(u, (2,))[0]

    def curvature_pair(self, u) -> tuple:
        """(derivative, second derivative) from one call to `terms`."""
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
    _GAP_PANELS panels raises InputError: below m ~ 9.8e-4 on
    the Gaussian kernel and 1.2e-4 on the bump, for one kink.
    """
    s = smoothed_loss(loss, kernel, m)
    edges = np.unique([k + b / m for k in loss.kinks
                       for b in (0.0, *_base_breaks(kernel))])
    cuts = np.ceil(np.diff(edges) / 2.0)
    if cuts.sum() > _GAP_PANELS:
        raise InputError(
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
