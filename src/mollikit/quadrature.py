"""Composite Gauss-Legendre quadrature with panel halving.

`integrate_rows` splits each integration range at caller-supplied
breakpoints (kinks of the integrand must be among them), applies a
50-node Gauss-Legendre rule on every panel, then halves all panels
together until two successive composite estimates agree to an absolute
target.  It handles a batch of integrals that share panel count but
not panel positions, which is how grid sweeps stay vectorized.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureError

DEFAULT_TARGET = 1e-12

_GL_X, _GL_W = np.polynomial.legendre.leggauss(50)


def _composite(f, lo, hi, level):
    """One composite pass: each (lo, hi) panel split into 2**level parts.

    lo/hi have shape (B, P); f maps node arrays of shape (B, T) to values.
    Returns estimates of shape (B,).
    """
    parts = 1 << level
    frac = np.arange(parts) / parts
    width = (hi - lo) / parts                      # (B, P)
    sub_lo = lo[..., None] + (hi - lo)[..., None] * frac   # (B, P, parts)
    half = 0.5 * width[..., None]                  # (B, P, 1) broadcast
    center = sub_lo + half
    nodes_v = center[..., None] + half[..., None] * _GL_X  # (B, P, parts, N)
    b = nodes_v.shape[0]
    vals = f(nodes_v.reshape(b, -1)).reshape(nodes_v.shape)
    return np.einsum("bpsn,n,bps->b", vals, _GL_W,
                     np.broadcast_to(half, vals.shape[:3]))


def integrate_rows(f, breaks, target=DEFAULT_TARGET, max_halvings=9):
    """Batched panel quadrature.

    breaks: (B, K) array, sorted along axis 1 (repeated values make
    zero-width panels, which contribute nothing).  f maps a (B, T) node
    array to integrand values of the same shape; row i of the nodes
    always belongs to row i of breaks.  Returns a (B,) array.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[:, :-1], breaks[:, 1:]
    est = _composite(f, lo, hi, 0)
    for level in range(1, max_halvings + 1):
        if lo.size * (1 << level) * _GL_X.size > 3e8:
            raise QuadratureError("quadrature node budget exceeded; "
                                  "reduce the batch size")
        new = _composite(f, lo, hi, level)
        done = np.max(np.abs(new - est))
        est = new
        if done < target:
            return est
    raise QuadratureError(
        f"batched quadrature did not reach target {target:g} "
        f"after {max_halvings} halvings (last change {done:.3e})")

