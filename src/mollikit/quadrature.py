"""Composite Gauss-Legendre quadrature by one fixed rule.

`integrate_rows` splits each integration range at caller-supplied
breakpoints (kinks of the integrand must be among them), cuts every
panel into 4 equal parts and applies a 50-node Gauss-Legendre rule on
each part: 200 nodes per panel, exact on polynomials of degree below
100 per part.  There is no halving loop and no accuracy target; the
caller's panels decide the accuracy, so they must be short enough for
the integrand to be smooth and well resolved on each.  It handles a
batch of integrals that share panel count but not panel positions,
which is how grid sweeps stay vectorized, and a row's value never
depends on the other rows of its batch.
"""
from __future__ import annotations

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(50)
_PARTS = 4


def integrate_rows(f, breaks):
    """Batched panel quadrature.

    breaks: (B, K) array, sorted along axis 1 (repeated values make
    zero-width panels, which contribute nothing).  f maps a (B, T) node
    array to integrand values of the same shape; row i of the nodes
    always belongs to row i of breaks.  Returns a (B,) array.
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
