"""Catalog of nonsmooth convex losses.

Each loss carries its value, a right-continuous subgradient selection,
and a piece table.  The table gives the Lipschitz constant, the kinks,
coercivity and the kink table `LossSpec.jumps`: (k_i, a_i, b_i), where
the subgradient jumps by a_i and its slope by b_i.  That table is the
distributional second derivative rho'', a generalized function: a point
mass a_i at each kink plus a piecewise-constant density that jumps by
b_i there (only Huber has one).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _as_same
from .errors import InputError

ABSOLUTE = "absolute"
CHECK = "check"
HUBER = "huber"
RELU = "relu"


@dataclass(frozen=True)
class LossSpec:
    """A convex loss from the catalog.

    kind is one of "absolute", "check" (quantile level tau), "huber"
    (threshold c) or "relu".  tau/c are validated at construction.
    """

    kind: str
    tau: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in (ABSOLUTE, CHECK, HUBER, RELU):
            raise InputError(f"unknown loss kind {self.kind!r}")
        if self.kind == CHECK:
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise InputError(f"tau must lie in (0, 1), got {self.tau}")
        elif self.tau is not None:
            raise InputError("tau only applies to the check loss")
        if self.kind == HUBER:
            if self.c is None or not 0.0 < self.c < np.inf:
                raise InputError(f"huber threshold c must be in (0, inf), got {self.c}")
        elif self.c is not None:
            raise InputError("c only applies to the huber loss")

    @property
    def lipschitz(self) -> float:
        """max |outer slope|; each catalog loss is linear outside its kinks."""
        pieces = loss_pieces(self)
        return max(abs(pieces[0][3]), abs(pieces[-1][3]))

    @property
    def kinks(self) -> tuple[float, ...]:
        """Where the loss is not twice differentiable: where pieces meet."""
        return tuple(piece[0] for piece in loss_pieces(self)[1:])

    @property
    def jumps(self) -> tuple[tuple[float, float, float], ...]:
        """(k_i, a_i, b_i) at each kink k_i: the subgradient jumps by
        a_i = (s - s_prev) + (q - q_prev)*k_i there, and its slope by
        b_i = q - q_prev, from the pieces' slopes s and curvatures q."""
        pieces = loss_pieces(self)
        return tuple((k, (s - s_prev) + (q - q_prev) * k, q - q_prev)
                     for (*_, s_prev, q_prev), (k, _, _, s, q)
                     in zip(pieces, pieces[1:]))

    @property
    def coercive(self) -> bool:
        """True when the loss grows without bound both ways: its outer
        slopes have opposite signs."""
        pieces = loss_pieces(self)
        return pieces[0][3] < 0.0 < pieces[-1][3]

    @property
    def label(self) -> str:
        if self.kind == CHECK:
            return f"check:{self.tau:g}"
        if self.kind == HUBER:
            return f"huber:{self.c:g}"
        return "abs" if self.kind == ABSOLUTE else "relu"


def absolute_loss() -> LossSpec:
    return LossSpec(ABSOLUTE)


def check_loss(tau: float) -> LossSpec:
    return LossSpec(CHECK, tau=tau)


def huber_loss(c: float) -> LossSpec:
    return LossSpec(HUBER, c=c)


def relu_loss() -> LossSpec:
    return LossSpec(RELU)


def parse_loss(text: str) -> LossSpec:
    """Parse the CLI loss grammar: abs | check:TAU | huber:C | relu."""
    name, _, arg = text.strip().lower().partition(":")
    if name == "abs" and not arg:
        return absolute_loss()
    if name == "relu" and not arg:
        return relu_loss()
    try:
        make, param = {"check": check_loss, "huber": huber_loss}[name], float(arg)
    except (KeyError, ValueError):      # an unknown name, or no number after it
        raise InputError(f"bad loss spec {text!r} "
                         "(expected abs|check:TAU|huber:C|relu)") from None
    return make(param)


def loss_value(loss: LossSpec, u) -> float | np.ndarray:
    x = np.asarray(u, dtype=float)
    if loss.kind == ABSOLUTE:
        out = np.abs(x)
    elif loss.kind == CHECK:
        out = x * (loss.tau - (x < 0))
    elif loss.kind == RELU:
        out = np.maximum(x, 0.0)
    else:
        c = loss.c
        # squaring the clipped x gives the same value where it is kept,
        # and cannot overflow where it is not
        xc = np.clip(x, -c, c)
        out = np.where(np.abs(x) <= c, 0.5 * xc * xc, c * np.abs(x) - 0.5 * c * c)
    return _as_same(u, out)


def loss_subgradient(loss: LossSpec, u) -> float | np.ndarray:
    """Right-continuous subgradient selection psi(u); NaN at NaN."""
    x = np.asarray(u, dtype=float)
    if loss.kind == HUBER:
        return _as_same(u, np.clip(x, -loss.c, loss.c))
    step = np.heaviside(x, 1.0)         # [x >= 0], and NaN at NaN
    if loss.kind == ABSOLUTE:
        out = 2.0 * step - 1.0
    elif loss.kind == CHECK:
        out = loss.tau - (1.0 - step)
    else:
        out = step
    return _as_same(u, out)


def loss_pieces(loss: LossSpec) -> tuple[tuple[float, float, float, float, float], ...]:
    """Piecewise-quadratic description of the loss.

    Each entry is (lo, hi, alpha, slope, quad) with
    value(w) = alpha + slope*w + 0.5*quad*w^2 on [lo, hi].
    """
    inf = np.inf
    if loss.kind == ABSOLUTE:
        return ((-inf, 0.0, 0.0, -1.0, 0.0), (0.0, inf, 0.0, 1.0, 0.0))
    if loss.kind == CHECK:
        t = loss.tau
        return ((-inf, 0.0, 0.0, t - 1.0, 0.0), (0.0, inf, 0.0, t, 0.0))
    if loss.kind == RELU:
        return ((-inf, 0.0, 0.0, 0.0, 0.0), (0.0, inf, 0.0, 1.0, 0.0))
    c = loss.c
    return ((-inf, -c, -0.5 * c * c, -c, 0.0),
            (-c, c, 0.0, 0.0, 1.0),
            (c, inf, -0.5 * c * c, c, 0.0))


def expected_curvature(loss: LossSpec, density) -> float:
    """Curvature constant a = E[rho''(e)] for e distributed as `density`.

    Summed by parts over the kink table: sum_i [a_i pdf(k_i) - b_i F(k_i)],
    since the density part of rho'' is 0 on both outer pieces.  The pdf
    is read only where a_i != 0 and the CDF only where b_i != 0, and
    either one not finite there raises InputError.
    """
    def at(fn, name, k):
        val = float(fn(k))
        if not np.isfinite(val):
            raise InputError(f"curvature undefined: {name} not evaluable at {k}")
        return val

    a = 0.0
    for k, jump, d_quad in loss.jumps:
        if jump:
            a += jump * at(density.pdf, "density", k)
        if d_quad:
            a -= d_quad * at(density.cdf, "CDF", k)
    return a
