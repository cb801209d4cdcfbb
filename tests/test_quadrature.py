import numpy as np
import pytest
from scipy.integrate import quad

from mollikit.errors import QuadratureError
from mollikit.quadrature import integrate_rows

from reference import integrate


def test_polynomial_exact():
    val = integrate(lambda x: 3 * x**2, [0.0, 2.0])
    assert val == pytest.approx(8.0, abs=1e-13)


def test_matches_scipy_on_smooth_integrand():
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    ours = integrate(f, [-2.0, 0.0, 2.0], target=1e-13)
    ref, _ = quad(lambda x: float(f(np.array(x))), -2, 2, epsabs=1e-13)
    assert ours == pytest.approx(ref, abs=1e-12)


def test_kink_split_beats_unsplit():
    # |x| on [-1, 1]: exact 1; with the kink as a breakpoint the panels
    # are polynomials and the rule is exact
    val = integrate(np.abs, [-1.0, 0.0, 1.0])
    assert val == pytest.approx(1.0, abs=1e-14)


def test_rows_batch_matches_scalar():
    rng = np.random.default_rng(0)
    centers = rng.uniform(-1, 1, 16)
    breaks = np.stack([np.full(16, -3.0), centers, np.full(16, 3.0)], axis=1)

    def f(v):
        return np.abs(v - centers[:, None])

    got = integrate_rows(f, breaks, target=1e-12)
    for i, c in enumerate(centers):
        ref = integrate(lambda x: np.abs(x - c), [-3.0, c, 3.0], target=1e-13)
        assert got[i] == pytest.approx(ref, abs=1e-11)


def test_zero_width_panels_contribute_nothing():
    val = integrate(lambda x: x * 0 + 1.0, [0.0, 0.5, 0.5, 0.5, 1.0])
    assert val == pytest.approx(1.0, abs=1e-14)


def test_unreachable_target_raises():
    # a discontinuity not listed as a breakpoint cannot converge to 1e-15
    with pytest.raises(QuadratureError):
        integrate(lambda x: (x > 0.1234).astype(float), [0.0, 1.0],
                  target=1e-15, max_halvings=6)
