import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import expit

from mollikit import mollify
from mollikit.distributions import ErrorDensity, standard_normal
from mollikit.errors import InvalidGridError, InvalidScaleError
from mollikit.kernels import (bump_kernel, gaussian_kernel, kernel_abs_moment,
                              kernel_cdf, kernel_value)
from mollikit.losses import (absolute_loss, check_loss, huber_loss, loss_subgradient,
                             loss_value, relu_loss)
from mollikit.mollify import (PartialMomentSmoother, expected_derivative_gap,
                              smooth_derivative, smooth_value, smoothed_loss,
                              sup_error)

from reference import derivative_quadrature, integrate, second_quadrature

BUMP = bump_kernel()
GAUSS = gaussian_kernel()
MU1_BUMP = 0.3344539977099753
MU2_BUMP = 0.1581136362637982
INV_SQRT_2PI = 0.3989422804014327

CATALOG = [absolute_loss(), check_loss(0.3), huber_loss(1.0), relu_loss()]
PUBLIC = (smooth_value, smooth_derivative, PartialMomentSmoother.second_derivative)
# the kink-split quadrature reference, on 1-d arrays
QUADRATURE = (mollify._value_quadrature, derivative_quadrature,
              second_quadrature)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_scale_validation():
    with pytest.raises(InvalidScaleError):
        smoothed_loss(absolute_loss(), BUMP, 0.0)
    with pytest.raises(InvalidScaleError):
        smoothed_loss(absolute_loss(), BUMP, -3.0)
    with pytest.raises(InvalidScaleError):
        PartialMomentSmoother(absolute_loss(), BUMP, 0.0)
    # below 1e-140, |u| = 1e150 would not be far from a kink in kernel
    # space, where every order takes its limit
    for m in (np.inf, np.nan, 1e-160):
        with pytest.raises(InvalidScaleError):
            PartialMomentSmoother(absolute_loss(), GAUSS, m)
        with pytest.raises(InvalidScaleError):
            smoothed_loss(absolute_loss(), BUMP, m)
        with pytest.raises(InvalidScaleError):
            mollify.check_scale(check_loss(0.3), m)
    mollify.check_scale(check_loss(0.3), 1e-140)


def test_closed_form_is_the_object_itself():
    # the public functions are the object's own exact methods, bit for
    # bit, on both kernels; only the bump value still takes the
    # kink-split quadrature
    grid = np.linspace(-2.0, 2.0, 81)
    for loss in CATALOG:
        for kern in (GAUSS, BUMP):
            s = smoothed_loss(loss, kern, 6.0)
            assert np.array_equal(smooth_derivative(s, grid), s.derivative(grid))
            got = smooth_derivative(s, 0.37)
            assert isinstance(got, float) and got == s.derivative(0.37)
        s = smoothed_loss(loss, GAUSS, 6.0)
        assert np.array_equal(smooth_value(s, grid), s.value(grid))
        got = smooth_value(s, 0.37)
        assert isinstance(got, float) and got == s.value(0.37)
        b = smoothed_loss(loss, BUMP, 6.0)
        assert np.array_equal(smooth_value(b, grid),
                              mollify._value_quadrature(b, grid))
        got = smooth_value(b, 0.37)
        assert isinstance(got, float)
        assert got == mollify._value_quadrature(b, np.array([0.37]))[0]


def test_bump_derivatives_never_reach_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(mollify, "integrate_rows", refuse)
    grid = np.linspace(-2.0, 2.0, 81)
    for loss in CATALOG:
        s = smoothed_loss(loss, BUMP, 6.0)
        for fn in (smooth_derivative, PartialMomentSmoother.second_derivative):
            assert np.all(np.isfinite(fn(s, grid)))
            assert np.isfinite(fn(s, 0.37))
    # the patch bites: the bump value still takes quadrature
    with pytest.raises(AssertionError, match="quadrature called"):
        smooth_value(s, grid)


def test_huber_curvature_never_looks_up_phi(monkeypatch):
    # Huber's subgradient has no jumps, so its smoothed curvature is
    # C(m(c - u)) - C(m(-c - u)) alone
    def refuse(*args, **kwargs):
        raise AssertionError("phi looked up")

    grid = np.linspace(-3.0, 3.0, 601)
    cases = []
    for kern in (GAUSS, BUMP):
        s = PartialMomentSmoother(huber_loss(1.0), kern, 6.0)
        curv = (kernel_cdf(kern, 6.0 * (1.0 - grid))
                - kernel_cdf(kern, 6.0 * (-1.0 - grid)))
        cases.append((s, s.derivative(grid), curv))
    monkeypatch.setattr(mollify, "kernel_value", refuse)
    for s, grad, curv in cases:
        assert np.array_equal(s.second_derivative(grid), curv)
        pair = s.curvature_pair(grid)
        assert np.array_equal(pair[0], grad) and np.array_equal(pair[1], curv)


# ---------------------------------------------------------------------------
# value examples
# ---------------------------------------------------------------------------

def test_value_absolute_bump_at_zero():
    # smoothing the absolute loss at the kink costs exactly mu1/m
    for m in (3.0, 10.0, 41.5):
        s = smoothed_loss(absolute_loss(), BUMP, m)
        assert smooth_value(s, 0.0) == pytest.approx(MU1_BUMP / m, abs=1e-11)


def test_value_absolute_bump_exact_outside_kink_window():
    s = smoothed_loss(absolute_loss(), BUMP, 10.0)
    assert smooth_value(s, 0.5) == pytest.approx(0.5, abs=1e-10)
    assert smooth_value(s, -2.2) == pytest.approx(2.2, abs=1e-10)


def test_value_relu_gaussian_closed_form():
    s = smoothed_loss(relu_loss(), GAUSS, 2.0)
    expect = 0.5 * INV_SQRT_2PI
    assert smooth_value(s, 0.0) == pytest.approx(expect, rel=1e-12)
    assert mollify._value_quadrature(s, np.array([0.0]))[0] == pytest.approx(
        expect, abs=1e-11)


def test_value_against_defining_integral():
    # direct check of the definition on a fresh quadrature, independent
    # of the kink-splitting evaluation path
    loss, m, u = check_loss(0.3), 4.0, 0.37
    direct = integrate(lambda v: loss_value(loss, u + v / m) * np.exp(-v * v / 2)
                       / np.sqrt(2 * np.pi), [-8.0, m * (0.0 - u), 8.0],
                       target=1e-13)
    s = smoothed_loss(loss, GAUSS, m)
    assert smooth_value(s, u) == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# derivative examples
# ---------------------------------------------------------------------------

def test_derivative_absolute_at_zero():
    for kern in (BUMP, GAUSS):
        s = smoothed_loss(absolute_loss(), kern, 7.0)
        assert smooth_derivative(s, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_derivative_check_gaussian_limit():
    s = smoothed_loss(check_loss(0.3), GAUSS, 5.0)
    assert smooth_derivative(s, 3.0) == pytest.approx(0.3, abs=1e-6)
    assert smooth_derivative(s, -3.0) == pytest.approx(-0.7, abs=1e-6)


def test_derivative_relu_bump_flat_region():
    s = smoothed_loss(relu_loss(), BUMP, 10.0)
    assert smooth_derivative(s, -0.5) == pytest.approx(0.0, abs=1e-10)
    assert smooth_derivative(s, 0.5) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# second derivative examples
# ---------------------------------------------------------------------------

def test_second_derivative_check_gaussian():
    s = smoothed_loss(check_loss(0.3), GAUSS, 4.0)
    assert s.second_derivative(0.0) == pytest.approx(
        4.0 * INV_SQRT_2PI, rel=1e-10)
    assert second_quadrature(s, np.array([0.0]))[0] == pytest.approx(
        4.0 * INV_SQRT_2PI, abs=1e-9)


def test_second_derivative_absolute_bump_outside_window():
    s = smoothed_loss(absolute_loss(), BUMP, 10.0)
    assert s.second_derivative(2.0) == pytest.approx(0.0, abs=1e-10)


def test_second_derivative_nonnegative():
    u = np.linspace(-3, 3, 301)
    for loss in CATALOG:
        for kern in (BUMP, GAUSS):
            s = smoothed_loss(loss, kern, 5.0)
            assert np.all(s.second_derivative(u) >= -1e-10)


# ---------------------------------------------------------------------------
# derivative chains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=lambda k: k.kind)
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_derivative_chain(loss, kern):
    rng = np.random.default_rng(8)
    u = rng.uniform(-2, 2, 40)
    m = 6.0
    s = smoothed_loss(loss, kern, m)
    h = 1e-5
    fd1 = (smooth_value(s, u + h) - smooth_value(s, u - h)) / (2 * h)
    d1 = smooth_derivative(s, u)
    assert np.all(np.abs(fd1 - d1) <= 1e-4 * np.maximum(np.abs(d1), np.abs(fd1))
                  + 1e-7)
    fd2 = (smooth_derivative(s, u + h) - smooth_derivative(s, u - h)) / (2 * h)
    d2 = s.second_derivative(u)
    assert np.all(np.abs(fd2 - d2) <= 1e-3 * np.maximum(np.abs(d2), np.abs(fd2))
                  + 1e-5 * m)


# ---------------------------------------------------------------------------
# convexity and the uniform bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1.0, 5.0, 20.0])
def test_midpoint_convexity_bulk(m):
    rng = np.random.default_rng(9)
    u = rng.uniform(-3, 3, 400)
    v = rng.uniform(-3, 3, 400)
    lam = rng.uniform(0, 1, 400)
    for loss in CATALOG:
        for kern in (BUMP, GAUSS):
            s = smoothed_loss(loss, kern, m)
            mid = smooth_value(s, lam * u + (1 - lam) * v)
            bound = lam * smooth_value(s, u) + (1 - lam) * smooth_value(s, v)
            assert np.all(mid <= bound + 1e-10)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 1))
def test_midpoint_convexity_property(u, v, lam):
    s = smoothed_loss(check_loss(0.3), BUMP, 5.0)
    mid = smooth_value(s, lam * u + (1 - lam) * v)
    assert mid <= lam * smooth_value(s, u) + (1 - lam) * smooth_value(s, v) + 1e-10


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=lambda k: k.kind)
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_uniform_bound_with_explicit_constant(loss, kern):
    grid = np.linspace(-3, 3, 1201)
    mu1 = kernel_abs_moment(kern, 1)
    for m in (2.0, 8.0):
        s = smoothed_loss(loss, kern, m)
        err = np.abs(smooth_value(s, grid) - loss_value(loss, grid))
        assert np.max(err) <= loss.lipschitz * mu1 / m + 1e-10


def test_two_sided_envelope():
    grid = np.linspace(-3, 3, 601)
    loss, kern, m = check_loss(0.3), BUMP, 5.0
    s = smoothed_loss(loss, kern, m)
    slack = loss.lipschitz * kernel_abs_moment(kern, 1) / m
    vals = smooth_value(s, grid)
    base = loss_value(loss, grid)
    assert np.all(vals >= base - slack - 1e-12)
    assert np.all(vals <= base + slack + 1e-12)


# ---------------------------------------------------------------------------
# sup_error and rates
# ---------------------------------------------------------------------------

def test_sup_error_absolute_bump():
    grid = np.linspace(-3, 3, 6001)
    s = smoothed_loss(absolute_loss(), BUMP, 10.0)
    assert sup_error(s, grid) == pytest.approx(MU1_BUMP / 10.0, abs=1e-10)


def test_sup_error_empty_grid():
    s = smoothed_loss(absolute_loss(), BUMP, 10.0)
    with pytest.raises(ValueError):
        sup_error(s, [])
    with pytest.raises(InvalidGridError, match="nonempty"):
        sup_error(s, np.empty((0, 3)))


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=lambda k: k.kind)
def test_sup_error_refuses_non_finite_grid(kern):
    # |rho_m - rho| at +/-inf is inf - inf; a typed error, not NaN
    s = smoothed_loss(absolute_loss(), kern, 10.0)
    for bad in ([0.0, np.inf], [-np.inf, 0.0], [np.nan], [0.5, np.nan, 1.0]):
        with pytest.raises(InvalidGridError, match="finite"):
            sup_error(s, bad)
        with pytest.raises(ValueError):
            sup_error(s, bad)


def test_sup_error_huber_interior():
    m = 100.0
    interior = np.linspace(-(1 - 1 / m), 1 - 1 / m, 801)
    s = smoothed_loss(huber_loss(1.0), BUMP, m)
    assert sup_error(s, interior) == pytest.approx(MU2_BUMP / (2 * m * m),
                                                   abs=1e-10)


def test_sup_error_zero_far_from_kinks():
    grid = np.concatenate([np.linspace(-3, -0.5, 101), np.linspace(0.5, 3, 101)])
    for loss in (absolute_loss(), check_loss(0.3), relu_loss()):
        s = smoothed_loss(loss, BUMP, 10.0)
        assert sup_error(s, grid) < 1e-10


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=lambda k: k.kind)
@pytest.mark.parametrize("loss", [absolute_loss(), check_loss(0.3), relu_loss()],
                         ids=lambda lo: lo.label)
def test_rate_halving_kink_losses(loss, kern):
    grid = np.linspace(-3, 3, 2401)
    errs = {m: sup_error(smoothed_loss(loss, kern, m), grid) for m in (5.0, 10.0)}
    assert 1.8 <= errs[5.0] / errs[10.0] <= 2.2


def test_rate_quartering_huber_interior():
    m = 10.0
    errs = {}
    for m in (10.0, 20.0):
        interior = np.linspace(-(1 - 1 / m), 1 - 1 / m, 801)
        errs[m] = sup_error(smoothed_loss(huber_loss(1.0), BUMP, m), interior)
    assert 3.6 <= errs[10.0] / errs[20.0] <= 4.4


def test_exactness_region():
    grid = np.linspace(-3, 3, 1201)
    m = 10.0
    for loss in (absolute_loss(), check_loss(0.3), relu_loss()):
        s = smoothed_loss(loss, BUMP, m)
        mask = np.abs(grid) > 1.0 / m + 1e-9
        gap = np.abs(smooth_value(s, grid[mask]) - loss_value(loss, grid[mask]))
        assert np.max(gap) < 1e-10
    s = smoothed_loss(huber_loss(1.0), BUMP, m)
    mask = np.abs(grid) > 1.0 + 1.0 / m + 1e-9
    gap = np.abs(smooth_value(s, grid[mask]) - loss_value(huber_loss(1.0), grid[mask]))
    assert np.max(gap) < 1e-10


def test_pointwise_derivative_convergence():
    for loss in CATALOG:
        for kern in (BUMP, GAUSS):
            s = smoothed_loss(loss, kern, 100.0)
            pts = np.array([-2.0, -0.6, 0.11, 0.6, 2.0])
            pts = pts[np.min(np.abs(pts[:, None] - np.array(loss.kinks)), axis=1)
                      > 0.1]
            gap = np.abs(smooth_derivative(s, pts) - loss_subgradient(loss, pts))
            assert np.max(gap) < 1e-3


# ---------------------------------------------------------------------------
# closed form vs quadrature vs piecewise reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1.0, 5.0, 15.0])
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_closed_form_matches_quadrature(loss, m):
    grid = np.linspace(-3, 3, 601)
    s = smoothed_loss(loss, GAUSS, m)
    for fn, quad in zip(PUBLIC, QUADRATURE):
        assert np.max(np.abs(fn(s, grid) - quad(s, grid))) < 1e-9


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=lambda k: k.kind)
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_piecewise_reduction_matches_quadrature(loss, kern):
    grid = np.linspace(-2.5, 2.5, 201)
    for m in (2.0, 9.0):
        red = PartialMomentSmoother(loss, kern, m)
        assert np.max(np.abs(red.value(grid)
                             - mollify._value_quadrature(red, grid))) < 1e-10
        assert np.max(np.abs(red.derivative(grid)
                             - derivative_quadrature(red, grid))) < 1e-10
        assert np.max(np.abs(red.second_derivative(grid)
                             - second_quadrature(red, grid))) < 1e-9
        # every method is the one evaluator, whose orders share one
        # kernel lookup: the same bits, at the limits and at NaN too
        odd = np.concatenate([grid, [np.inf, -np.inf, 1e151, -1e151, np.nan]])
        singles = (red.value(odd), red.derivative(odd), red.second_derivative(odd))
        for got, want in zip(red.terms(odd, (0, 1, 2)), singles):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(red.curvature_pair(odd), singles[1:]):
            assert got.tobytes() == want.tobytes()
        for u in (0.37, np.inf, -1e151, np.nan):
            got = red.terms(u, (0, 1, 2))
            want = (red.value(u), red.derivative(u), red.second_derivative(u))
            assert all(isinstance(g, float) for g in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_bump_window_drops_no_mass():
    # the quadrature window stops at +/-0.99: the density there is below
    # 3.4e-22 and the mass beyond it below 1e-22
    assert mollify._base_breaks(BUMP) == (-0.99, 0.99)
    assert kernel_value(BUMP, 0.99) < 3.4e-22
    mass, err = quad(lambda v: kernel_value(BUMP, v), 0.99, 1.0,
                     epsabs=0.0, epsrel=1e-8)
    assert 0.0 < mass < 1e-22 and err < 1e-8 * mass


@pytest.mark.parametrize("m", [5.0, 80.0])
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_bump_quadrature_matches_smoother_on_rate_grid(loss, m):
    # the 6001-point grid of `mollikit rate`
    grid = np.linspace(-3.0, 3.0, 6001)
    exact = PartialMomentSmoother(loss, BUMP, m)
    assert np.max(np.abs(mollify._value_quadrature(exact, grid)
                         - exact.value(grid))) < 1e-12


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=lambda k: k.kind)
def test_quadrature_row_independent_of_chunk(kern, monkeypatch):
    # the rule is fixed, so a row's value does not depend on its chunk
    # neighbours at all
    grid = np.linspace(-3.0, 3.0, 201)
    for loss in CATALOG:
        for m in (5.0, 80.0):
            s = smoothed_loss(loss, kern, m)
            chunked = [quad(s, grid) for quad in QUADRATURE]
            with monkeypatch.context() as mp:
                mp.setattr(mollify, "_CHUNK_ROWS", 1)
                alone = [quad(s, grid) for quad in QUADRATURE]
            for a, b in zip(chunked, alone):
                assert np.array_equal(a, b)


def test_bump_value_far_from_kinks_matches_smoother():
    # the rule is fixed, so a value of size |u| carries only its own
    # rounding; an absolute accuracy target could not be met out here
    far = np.array([1e5, -1e5, 1e6, -1e6, 1e8, -1e8])
    for loss in CATALOG:
        s = smoothed_loss(loss, BUMP, 10.0)
        exact = s.value(far)
        got = smooth_value(s, far)
        assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact))
        assert all(smooth_value(s, u) == g for u, g in zip(far, got))
        # past 1e150, and at +/-inf, both are the loss itself
        beyond = np.array([1e200, -1e200, np.inf, -np.inf])
        assert np.array_equal(smooth_value(s, beyond), s.value(beyond))
        assert smooth_value(s, np.inf) == s.value(np.inf)


@pytest.mark.parametrize("kern", [GAUSS, BUMP], ids=["gaussian", "bump"])
def test_smoother_far_arguments_are_quiet(kern):
    # far from the kinks the smoothed loss is the loss itself, and the
    # kernel underflows there without an overflow warning, even where
    # Huber's u^2 terms would overflow; at +/-inf the value and Huber's
    # slope are their limits, with no invalid value
    big = np.array([1e200, -1e200, 1e300, -1e300])
    inf = np.array([np.inf, -np.inf, np.inf, -np.inf])
    mixed = np.array([-np.inf, 0.3, np.inf, np.nan, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in CATALOG:
            s = PartialMomentSmoother(loss, kern, 5.0)
            for u in (big, inf):
                grad, curv = s.curvature_pair(u)
                assert np.array_equal(grad, loss_subgradient(loss, big))
                assert np.all(curv == 0.0)
            assert np.array_equal(s.value(big), loss_value(loss, big))
            assert all(s.value(u) == loss_value(loss, u) for u in big)
            assert np.array_equal(s.value(inf), loss_value(loss, inf))
            assert s.value(np.inf) == loss_value(loss, np.inf)
            assert s.derivative(-np.inf) == loss_subgradient(loss, -np.inf)
            # finite entries beside infinite ones are evaluated as alone,
            # and NaN stays NaN
            for fn, limit in [(s.value, loss_value),
                              (s.derivative, loss_subgradient)]:
                got = fn(mixed)
                assert np.array_equal(got[[1, 4]], fn(mixed[[1, 4]]))
                assert np.array_equal(got[[0, 2]], limit(loss, mixed[[0, 2]]))
                assert np.isnan(got[3])


@pytest.mark.parametrize("kern", [GAUSS, BUMP], ids=["gaussian", "bump"])
def test_huge_scale_is_quiet(kern):
    # at m = 1e300, m*(k - u) overflows to +/-inf already at |u| ~ 1e10;
    # that is the exact limit, so the orders are the loss's own, quietly
    u = np.array([1e10, -1e10, 1e100, -1e100, 1.5, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in CATALOG:
            s = PartialMomentSmoother(loss, kern, 1e300)
            value, grad, curv = s.terms(u, (0, 1, 2))
            assert np.allclose(value, loss_value(loss, u), rtol=1e-15, atol=0.0)
            assert np.array_equal(grad, loss_subgradient(loss, u))
            assert np.array_equal(curv, np.zeros(u.shape))
            assert np.array_equal(s.value(u), value)
            assert np.array_equal(s.curvature_pair(u)[1], curv)


def test_scale_overflowing_the_jumps_is_refused():
    # at m = 1e308 the absolute loss's curvature mass m*2 overflows, and
    # inf * phi would be NaN where phi is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kern in (GAUSS, BUMP):
            with pytest.raises(InvalidScaleError, match="too large"):
                PartialMomentSmoother(absolute_loss(), kern, 1e308)
            with pytest.raises(InvalidScaleError, match="too large"):
                mollify.check_scale(absolute_loss(), 1e308)
            # check:0.3 jumps by 1 and Huber not at all: both finite
            s = PartialMomentSmoother(check_loss(0.3), kern, 1e308)
            assert s.second_derivative(1.0) == 0.0
            s = PartialMomentSmoother(huber_loss(1.0), kern, 1e308)
            assert s.terms(np.array([0.5, 2.0]), (2,))[0].tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# expectation diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [5.0, 80.0])
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_bump_gap_matches_nested_quadrature(loss, m):
    # the gap integrates the smoother's exact derivative; the reference
    # integrates the kink-split quadrature derivative over the same
    # breaks, the bump window at each kink
    density = standard_normal()
    ref = smoothed_loss(loss, BUMP, m)
    breaks = sorted({k + b / m for k in loss.kinks for b in (-0.99, 0.0, 0.99)})
    nested = integrate(
        lambda u: np.abs(derivative_quadrature(ref, u)
                         - loss_subgradient(loss, u))
        * density.pdf(u), breaks, target=1e-13)
    gap = expected_derivative_gap(loss, BUMP, m, density)
    assert abs(gap - nested) <= 1e-13

def test_expected_derivative_gap_bound():
    # E|rho_m' - psi| <= lipschitz * mu1 * int|f'| / m; for the standard
    # normal the total variation of the density is 2/sqrt(2*pi)
    density = standard_normal()
    m = 10.0
    gap = expected_derivative_gap(check_loss(0.5), BUMP, m, density)
    bound = 0.5 * MU1_BUMP * (2 * INV_SQRT_2PI) / m
    assert 0.0 < gap <= bound


def test_expected_derivative_gap_halves():
    density = standard_normal()
    g10 = expected_derivative_gap(check_loss(0.5), BUMP, 10.0, density)
    g20 = expected_derivative_gap(check_loss(0.5), BUMP, 20.0, density)
    assert 1.6 <= g10 / g20 <= 2.4


def test_expected_derivative_gap_vanishes():
    density = standard_normal()
    gap = expected_derivative_gap(check_loss(0.5), BUMP, 1e4, density)
    assert gap < 1e-3


def _logistic_pdf(u):
    z = np.exp(-np.abs(u))
    return z / (1.0 + z)**2


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
@pytest.mark.parametrize("loss", [check_loss(0.3), huber_loss(1.0)],
                         ids=lambda lo: lo.label)
def test_expected_derivative_gap_takes_any_density(loss, kern):
    # the panels come from the kernel's window at each kink, so a density
    # is only its pdf and CDF; the reference integrates the whole line
    logistic = ErrorDensity(name="logistic", pdf=_logistic_pdf, cdf=expit)
    m = 10.0
    s = smoothed_loss(loss, kern, m)

    def f(u):
        return (abs(s.derivative(u) - loss_subgradient(loss, u))
                * _logistic_pdf(u))

    edges = [-np.inf, *sorted(k + b / m for k in loss.kinks
                              for b in (-1.0, 0.0, 1.0)), np.inf]
    ref = sum(quad(f, lo, hi, epsabs=1e-20, epsrel=1e-13, limit=200)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    gap = expected_derivative_gap(loss, kern, m, logistic)
    assert gap == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
@pytest.mark.parametrize("loss", CATALOG, ids=lambda lo: lo.label)
def test_expected_derivative_gap_at_a_wide_scale(loss, kern):
    # at m = 0.01 the kernel's windows are hundreds wide, far wider than
    # the density; the panels stay at most 2 wide, so the gap matches a
    # whole-line reference also for a density centred mid-window
    normal = standard_normal()
    m = 0.01
    s = smoothed_loss(loss, kern, m)
    for shift in (0.0, 30.0):
        density = ErrorDensity(name=f"normal({shift:g}, 1)",
                               pdf=lambda u: normal.pdf(u - shift),
                               cdf=lambda u: normal.cdf(u - shift))

        def f(u):
            return (abs(s.derivative(u) - loss_subgradient(loss, u))
                    * density.pdf(u))

        edges = [-np.inf, *sorted({*loss.kinks, shift}), np.inf]
        ref = sum(quad(f, lo, hi, epsabs=1e-20, epsrel=1e-13, limit=200)[0]
                  for lo, hi in zip(edges[:-1], edges[1:]))
        gap = expected_derivative_gap(loss, kern, m, density)
        assert gap == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
def test_expected_derivative_gap_refuses_too_small_scale(kern):
    # at m = 1e-6 the kernel's window spans millions; resolving the
    # density across it would take more than _GAP_PANELS panels
    for loss in CATALOG:
        with pytest.raises(InvalidScaleError, match="too small"):
            expected_derivative_gap(loss, kern, 1e-6, standard_normal())


def test_expected_derivative_gap_huber_gaussian_tight():
    # a tight scipy quad reference of E|rho_m' - psi| for Huber (c = 1)
    # under N(0, 1); it is phi(1)/m^2 to leading order
    gap = expected_derivative_gap(huber_loss(1.0), GAUSS, 1000.0,
                                  standard_normal())
    assert gap == pytest.approx(2.419707245191554e-07, rel=1e-9)


def test_expected_second_derivative_bias_shrinks():
    # |E[rho_m''(e)] - a| <= lipschitz * mu1 * int|f''| / m for the
    # smoothed curvature of the check loss under a smooth density
    density = standard_normal()
    int_abs_f2 = 0.9678828980765734          # int |f''| for the normal
    a = INV_SQRT_2PI
    prev = None
    for m in (5.0, 20.0, 80.0):
        red = PartialMomentSmoother(check_loss(0.5), BUMP, m)
        val = integrate(lambda u: red.second_derivative(u) * density.pdf(u),
                        [-10.0, -1.0 / m, 0.0, 1.0 / m, 10.0], target=1e-11)
        bias = abs(val - a)
        assert bias <= 0.5 * MU1_BUMP * int_abs_f2 / m + 1e-9
        if prev is not None:
            assert bias < prev + 1e-12
        prev = bias


def test_expected_second_derivative_shift_stability():
    # shifting the argument by eps moves the expectation by O(1/m + eps)
    density = standard_normal()
    m, eps = 20.0, 0.05
    red = PartialMomentSmoother(check_loss(0.5), BUMP, m)

    def expect(shift):
        return integrate(lambda u: red.second_derivative(u + shift) * density.pdf(u),
                         sorted({-10.0, (-1.0 / m) - shift, -shift,
                                 (1.0 / m) - shift, 10.0}), target=1e-11)

    drift = abs(expect(eps) - expect(0.0))
    int_abs_f2 = 0.9678828980765734
    bound = 0.5 * int_abs_f2 * (2 * MU1_BUMP / m + eps)
    assert drift <= 1.5 * bound
