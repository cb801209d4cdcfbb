import numpy as np
import pytest
from scipy.integrate import quad

from mollikit.mollify import integrate_rows


def _one(f, breaks):
    """integrate_rows on a single row of a vectorized scalar integrand."""
    return integrate_rows(f, np.asarray(breaks, dtype=float)[None, :])[0]


def test_polynomial_exact():
    # 4 parts of a 50-node Gauss-Legendre rule: exact up to degree 99
    for degree in (0, 1, 2, 7, 50, 99):
        val = _one(lambda x: (degree + 1) * x**degree, [0.0, 1.0])
        assert val == pytest.approx(1.0, rel=1e-14)
    assert _one(lambda x: 3 * x**2, [-1.0, 0.5, 2.0]) == pytest.approx(
        9.0, rel=1e-15)


def test_matches_scipy_on_smooth_integrand():
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    ours = _one(f, [-2.0, 0.0, 2.0])
    ref, _ = quad(lambda x: float(f(np.array(x))), -2, 2, epsabs=1e-14,
                  epsrel=1e-13)
    assert ours == pytest.approx(ref, abs=1e-14)


def test_kink_split_beats_unsplit():
    # |x| on [-1, 1]: exact 1; with the kink as a breakpoint the panels
    # are polynomials and the rule is exact, without it the kink sits
    # between two nodes and costs far more than rounding
    assert _one(np.abs, [-1.0, 0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert abs(_one(np.abs, [-1.0, 0.1, 1.0]) - 1.0) > 1e-8


def test_rows_batch_matches_scalar():
    # a row's value is the same bits whether it is integrated in a batch
    # or alone
    rng = np.random.default_rng(0)
    centers = rng.uniform(-1, 1, 16)
    breaks = np.stack([np.full(16, -3.0), centers, np.full(16, 3.0)], axis=1)

    def f(v):
        return np.abs(v - centers[:, None]) * np.exp(-v * v)

    got = integrate_rows(f, breaks)
    for i, c in enumerate(centers):
        alone = _one(lambda x: np.abs(x - c) * np.exp(-x * x), breaks[i])
        assert got[i] == alone


def test_zero_width_panels_contribute_nothing():
    f = lambda x: np.exp(x)
    padded = _one(f, [0.0, 0.5, 0.5, 0.5, 1.0])
    assert padded == _one(f, [0.0, 0.5, 1.0])
    assert padded == pytest.approx(np.e - 1.0, rel=1e-15)
    assert _one(f, [0.25, 0.25]) == 0.0
