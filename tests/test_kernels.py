import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from mollikit import kernels
from mollikit.errors import InputError
from mollikit.kernels import (MollifierKernel, bump_kernel, bump_normalizer,
                              gaussian_kernel, kernel_abs_moment, kernel_cdf,
                              kernel_excess, kernel_partial_moment,
                              kernel_value, parse_kernel)

from reference import integrate, kernel_derivative

BUMP = bump_kernel()
GAUSS = gaussian_kernel()

# golden values, frozen from a 40-digit quadrature oracle
C_BUMP = 2.252283621043581
MU1_BUMP = 0.3344539977099753
MU2_BUMP = 0.1581136362637982
INV_SQRT_2PI = 0.3989422804014327


def test_normalizer_golden_value():
    assert bump_normalizer() == pytest.approx(C_BUMP, abs=1e-12)
    assert 2.0 < bump_normalizer() < 3.0


def test_normalizer_against_independent_oracle():
    raw, _ = quad(lambda v: np.exp(-1.0 / (1.0 - v * v)), -1, 1,
                  points=[-0.99, 0.0, 0.99], epsabs=1e-14, limit=200)
    assert bump_normalizer() == pytest.approx(1.0 / raw, abs=1e-11)


def test_bump_density_integrates_to_one():
    mass = integrate(lambda v: kernel_value(BUMP, v),
                     [-1.0, -0.99, 0.0, 0.99, 1.0], target=1e-13)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_gaussian_density_integrates_to_one():
    mass = integrate(lambda v: kernel_value(GAUSS, v),
                     [-8.0, -2.0, 0.0, 2.0, 8.0], target=1e-13)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_value_examples():
    assert kernel_value(BUMP, 1.0) == 0.0
    assert kernel_value(BUMP, -1.2) == 0.0
    assert kernel_value(BUMP, 0.0) == pytest.approx(C_BUMP * np.exp(-1.0), rel=1e-12)
    assert kernel_value(GAUSS, 0.0) == pytest.approx(INV_SQRT_2PI, rel=1e-12)


def test_symmetry_bulk():
    rng = np.random.default_rng(1)
    v = rng.uniform(-5, 5, 1000)
    for kern in (BUMP, GAUSS):
        assert np.array_equal(kernel_value(kern, v), kernel_value(kern, -v))


@given(st.floats(min_value=-3, max_value=3))
def test_symmetry_pointwise(v):
    for kern in (BUMP, GAUSS):
        assert kernel_value(kern, v) == kernel_value(kern, -v)


def test_derivative_examples():
    assert kernel_derivative(BUMP, 0.0) == 0.0
    assert kernel_derivative(GAUSS, 0.0) == 0.0
    assert kernel_derivative(GAUSS, 1.0) == pytest.approx(
        -kernel_value(GAUSS, 1.0), rel=1e-13)


@pytest.mark.parametrize("kern,vmax", [(BUMP, 0.9), (GAUSS, 4.0)])
def test_derivatives_match_finite_differences(kern, vmax):
    rng = np.random.default_rng(2)
    v = rng.uniform(-vmax, vmax, 60)
    h = 1e-5
    fd = (kernel_value(kern, v + h) - kernel_value(kern, v - h)) / (2 * h)
    exact = kernel_derivative(kern, v)
    scale = np.maximum(np.abs(exact), np.abs(fd))
    mask = scale > 1e-9
    assert np.all(np.abs(fd - exact)[mask] <= 1e-6 * scale[mask] + 1e-10)


def test_boundary_flatness():
    # the density and its derivative vanish approaching the support edge
    v = np.array([0.9999, 0.99999, 1.0, 1.0001])
    for fn in (kernel_value, kernel_derivative):
        assert np.all(np.abs(fn(BUMP, v)) < 1e-8)


def test_bump_edges_give_zero_not_nan():
    # at the support edge, past it, at +/-inf and at NaN the density and
    # its derivative are 0, with no floating-point warning
    edges = np.array([1.0, 1.0 + 1e-12, 2.0, np.inf, np.nan])
    edges = np.concatenate([edges, -edges])
    inside = np.array([1.0 - 1e-7, -(1.0 - 1e-7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (kernel_value, kernel_derivative):
            assert np.all(fn(BUMP, edges) == 0.0)
            assert all(fn(BUMP, v) == 0.0 for v in edges)
            assert np.all(np.isfinite(fn(BUMP, inside)))
    goldens = {0.3: (0.7505444108033992, -0.5438070842676482),
               -0.7: (0.31700438590781815, 1.7062904278006357),
               0.95: (7.912627117596185e-05, -0.015814849728791838)}
    for v, values in goldens.items():
        for fn, golden in zip((kernel_value, kernel_derivative), values):
            assert fn(BUMP, v) == pytest.approx(golden, rel=1e-14)


def test_abs_moment_examples():
    for kern in (BUMP, GAUSS):
        assert kernel_abs_moment(kern, 0) == pytest.approx(1.0, abs=1e-10)
    assert kernel_abs_moment(GAUSS, 1) == pytest.approx(np.sqrt(2 / np.pi), rel=1e-12)
    assert kernel_abs_moment(GAUSS, 2) == pytest.approx(1.0, rel=1e-12)
    assert kernel_abs_moment(BUMP, 1) == pytest.approx(MU1_BUMP, abs=1e-12)
    assert kernel_abs_moment(BUMP, 2) == pytest.approx(MU2_BUMP, abs=1e-12)


def test_bump_table_totals_match_moments():
    # the tables and the constants come from one pass over the bump
    mu1, mu2 = kernel_abs_moment(BUMP, 1), kernel_abs_moment(BUMP, 2)
    assert kernel_partial_moment(BUMP, np.inf, 2) == pytest.approx(
        mu2, rel=1e-15, abs=0.0)
    assert -2.0 * kernel_partial_moment(BUMP, 0.0, 1) == pytest.approx(
        mu1, rel=1e-15, abs=0.0)


def test_gaussian_moments_against_quadrature():
    for k in (1, 2):
        val = integrate(lambda v: np.abs(v) ** k * kernel_value(GAUSS, v),
                        [-8.0, -2.0, 0.0, 2.0, 8.0], target=1e-13)
        assert val == pytest.approx(kernel_abs_moment(GAUSS, k), abs=1e-10)


def test_abs_moment_validation():
    with pytest.raises(InputError):
        kernel_abs_moment(BUMP, 3)
    for kern in (BUMP, GAUSS):
        with pytest.raises(InputError, match="k must be 1 or 2"):
            kernel_partial_moment(kern, 0.5, 0)


@pytest.mark.parametrize("kern", [BUMP, GAUSS])
@pytest.mark.parametrize("m", [1.0, 5.0, 25.0])
def test_scaled_first_moment(kern, m):
    # int |v| * m*phi(m v) dv = mu1 / m, by change of variables
    window = 1.0 if kern.kind == "bump" else 8.0
    lim = window / m
    val = integrate(lambda v: np.abs(v) * m * kernel_value(kern, m * v),
                    [-lim, 0.0, lim], target=1e-13)
    assert val == pytest.approx(kernel_abs_moment(kern, 1) / m, abs=1e-10)


def test_cdf_and_partial_moments_against_quadrature():
    rng = np.random.default_rng(3)
    # table nodes sit at -1 + i*h; take a few nodes and midpoints, the
    # first and last intervals among them
    h = 2.0 / 8192
    on_grid = -1.0 + h * np.array([0.5, 1.0, 1.5, 2.0, 2047.5, 4095.0, 4095.5,
                                   4096.0, 4096.5, 6000.0, 8190.5, 8191.0,
                                   8191.5])
    for t in np.concatenate([rng.uniform(-0.999, 0.999, 12), on_grid]):
        breaks = sorted({-1.0, t} | {b for b in (-0.99, 0.99) if b < t})
        direct = integrate(lambda v: kernel_value(BUMP, v), breaks, target=1e-14)
        assert kernel_cdf(BUMP, t) == pytest.approx(direct, abs=1e-12)
        for k in (1, 2):
            direct_k = integrate(lambda v: v**k * kernel_value(BUMP, v),
                                 breaks, target=1e-14)
            assert kernel_partial_moment(BUMP, t, k) == pytest.approx(
                direct_k, abs=1e-12)


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
def test_excess_moments_against_quadrature(kern):
    # E(V - s)_+^k = int_s^inf (v - s)^k phi(v) dv, the smoothed loss's
    # bias; at s = 0 it is mu_k / 2 by symmetry, and from the kernel's
    # reach on (1 on the bump, 40 on the Gaussian) it is exactly 0
    reach = 1.0 if kern == BUMP else 40.0
    top = 1.0 if kern == BUMP else 12.0
    s = np.concatenate([np.linspace(0.0, 0.999, 23), [0.5 + 2.0**-13, 0.9999]])
    if kern == GAUSS:
        s = np.concatenate([s, [1.5, 3.0, 7.0]])
    got = [kernel_excess(kern, s, k) for k in (1, 2)]
    for i, x in enumerate(s.tolist()):
        breaks = sorted({x, top} | {b for b in (0.99,) if x < b < top})
        for k in (1, 2):
            direct = integrate(lambda v: (v - x)**k * kernel_value(kern, v),
                               breaks, target=1e-15)
            assert got[k - 1][i] == pytest.approx(direct, abs=1e-15)
    for k in (1, 2):
        half = 0.5 * kernel_abs_moment(kern, k)
        at_zero = kernel_excess(kern, 0.0, k)
        assert isinstance(at_zero, float)
        assert abs(at_zero - half) <= 2.0 * np.spacing(half)
    far = np.array([reach, 2.0 * reach, 1e300, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t1, t2 = (kernel_excess(kern, far, k) for k in (1, 2))
    for out in (t1, t2):
        assert np.array_equal(out[:4], np.zeros(4)) and np.isnan(out[4])


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
def test_excess_is_nan_below_its_domain(kern):
    # E(V - s)_+^k is defined for s >= 0; below 0, at any distance, it is
    # NaN, as at NaN, while -0.0 reads as s = 0
    below = np.array([-0.5, -5.0, -50.0, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2):
            assert np.all(np.isnan(kernel_excess(kern, below, k)))
            assert all(np.isnan(kernel_excess(kern, s, k)) for s in below)
            at_zero = kernel_excess(kern, 0.0, k)
            assert kernel_excess(kern, -0.0, k) == at_zero
            assert np.array_equal(kernel_excess(kern, np.array([-0.0, 0.0]), k),
                                  [at_zero, at_zero])


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("s", [0.5, np.array([0.0, 0.5, 2.0])], ids=["scalar", "array"])
def test_excess_order_validation(kern, k, s):
    # only k = 1, 2 have tables; any other order is refused, with the
    # error kernel_partial_moment gives, not read from a wrong table
    with pytest.raises(InputError, match="k must be 1 or 2"):
        kernel_excess(kern, s, k)
    with pytest.raises(InputError, match="k must be 1 or 2"):
        kernel_partial_moment(kern, s, k)


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
def test_one_order_check_for_every_kernel_integral(kern):
    # an integer order from the allowed set is read, a numpy integer
    # included; anything else, a float 1.0 too, is refused alike on both
    # kernels rather than read through a table index or a closed form
    calls = ((lambda k: kernel_abs_moment(kern, k), (0, 1, 2)),
             (lambda k: kernel_partial_moment(kern, 0.3, k), (1, 2)),
             (lambda k: kernel_excess(kern, 0.3, k), (1, 2)))
    for call, allowed in calls:
        for k in allowed:
            assert call(np.int64(k)) == call(k)
        for k in (-1, 3, 1.0, 2.0, 1.5, "1", None):
            with pytest.raises(InputError, match="k must be"):
                call(k)


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
def test_integrals_are_their_limits_from_just_short_of_the_reach(kern):
    # the smoother clips each kink distance to the reach r and reads the
    # unclamped lookups at t = m * (r / m), which rounds to r * (1 +/- ulp);
    # there, and on the bump from |t| = 1 - 2**-11 = 0.999512 on (its two
    # outermost table rows on each side), every table row and closed form
    # must be its limit already, bit for bit
    r = kern.reach
    edge = r * (1.0 + np.array([-2.0, -1.0, -0.5, 0.0, 1.0, 2.0]) * 2.0**-52)
    if kern == BUMP:
        edge = np.concatenate([np.linspace(1.0 - 2.0**-11, 1.0, 2001), edge])
    t = np.concatenate([edge, -edge])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [kernels._integral(kern, t, k) for k in (0, 1, 2)]
        far = np.copysign(np.inf, t)
        limits = [kernel_cdf(kern, far)] + [kernel_partial_moment(kern, far, k)
                                            for k in (1, 2)]
        t1, t2 = (kernels._excess(kern, edge, k) for k in (1, 2))
        phi = kernel_value(kern, t)
    assert np.array_equal(got[0], (t > 0.0).astype(float))
    for out, limit in zip(got, limits):
        assert np.array_equal(out, limit)
    assert np.all(t1 == 0.0) and np.all(t2 == 0.0) and np.all(phi == 0.0)
    # the public functions clamp first, so they take +/-inf and NaN
    assert [kernel_excess(kern, np.inf, k) for k in (1, 2)] == [0.0, 0.0]
    assert np.isnan(kernel_excess(kern, np.nan, 1))


def test_cdf_limits_and_symmetry():
    for kern in (BUMP, GAUSS):
        assert kernel_cdf(kern, np.inf) == pytest.approx(1.0, abs=1e-14)
        assert kernel_cdf(kern, -np.inf) == pytest.approx(0.0, abs=1e-14)
        t = np.linspace(-0.9, 0.9, 9)
        assert np.allclose(kernel_cdf(kern, t) + kernel_cdf(kern, -t), 1.0,
                           atol=1e-12)
    assert kernel_partial_moment(GAUSS, np.inf, 2) == pytest.approx(1.0)
    assert kernel_partial_moment(BUMP, np.inf, 2) == pytest.approx(MU2_BUMP,
                                                                   abs=1e-12)
    # the bump tables return their totals and zero exactly past the support
    tables = [lambda t: kernel_cdf(BUMP, t)] + [
        lambda t, k=k: kernel_partial_moment(BUMP, t, k) for k in (1, 2)]
    totals = [1.0] + [kernel_partial_moment(BUMP, 1.0, k) for k in (1, 2)]
    beyond = np.array([1.0, 1.5, np.inf])
    for table, total in zip(tables, totals):
        assert np.all(table(beyond) == total)
        assert np.all(table(-beyond) == 0.0)
        assert all(table(t) == total for t in beyond)
    # NaN in, NaN out, with no warning, for the bump tables and the
    # Gaussian closed forms
    gaussian = [lambda t: kernel_cdf(GAUSS, t)] + [
        lambda t, k=k: kernel_partial_moment(GAUSS, t, k) for k in (1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in tables + gaussian:
            assert np.isnan(table(np.nan))
            out = table(np.array([np.nan, 0.5, -2.0]))
            assert np.isnan(out[0]) and np.all(np.isfinite(out[1:]))


def test_gaussian_far_tails_are_quiet_limits():
    # past ~1.3e154, where x*x would overflow, the density and moments
    # still give their limits, with no warning
    far = np.array([1e200, -1e200, np.inf, -np.inf])
    # around phi's underflow point (|t| ~ 38.58) and the cap at 40, phi,
    # Phi, P1 = -phi and P2 = Phi - t*phi are their closed forms, with
    # t*phi -> 0 where phi is 0
    edges = [38.5, 38.7, 40.0, 41.0, 1e64, 1e100, 1e154, 1.4e154, 1e300,
             np.inf]
    ts = np.array([sign * t for t in edges for sign in (1.0, -1.0)] + [np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(kernel_value(GAUSS, far) == 0.0)
        assert kernel_value(GAUSS, 1e200) == 0.0
        assert np.all(kernel_partial_moment(GAUSS, far, 1) == 0.0)
        assert np.array_equal(kernel_partial_moment(GAUSS, far, 2),
                              [1.0, 0.0, 1.0, 0.0])
        phi = kernel_value(GAUSS, ts)
        cdf = kernel_cdf(GAUSS, ts)
        p1, p2 = (kernel_partial_moment(GAUSS, ts, k) for k in (1, 2))
    assert np.all(np.isnan([phi[-1], cdf[-1], p1[-1], p2[-1]]))
    for i, t in enumerate(ts[:-1].tolist()):
        d = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        c = 0.5 * math.erfc(-t / math.sqrt(2.0))
        for got, want in ((phi[i], d), (cdf[i], c), (p1[i], -d),
                          (p2[i], c - t * d if d else c)):
            if want in (0.0, 1.0):              # the limits, exactly
                assert got == want
            else:                               # subnormal terms at 38.5
                assert got == pytest.approx(want, rel=1e-13, abs=1e-322)


def test_bump_far_tails_are_quiet_limits():
    # v*v overflows past ~1.3e154; the bump and its derivative are still
    # 0 there, with no warning, and NaN still gives 0
    far = np.array([1e200, -1e200, np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (kernel_value, kernel_derivative):
            assert np.all(fn(BUMP, far) == 0.0)
            assert all(fn(BUMP, v) == 0.0 for v in far)
        assert np.array_equal(kernel_cdf(BUMP, far[:4]), [1.0, 0.0, 1.0, 0.0])


def _same(a, b) -> bool:
    """Equal by ==, NaN where NaN, and the sign of every zero alike."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("kern", [BUMP, GAUSS], ids=["bump", "gaussian"])
def test_public_integrals_are_the_clamped_cores(kern):
    # within the reach the public functions' clamp changes nothing: each
    # equals the core that the smoother calls unclamped, bit for bit and
    # with the sign of every zero, on 1-D input and on a (2, n) argument,
    # one row per kink as the smoother passes it
    r = kern.reach
    nodes = np.linspace(-1.0, 1.0, 8193)
    t = r * np.concatenate([
        [1.0, -1.0, 0.0, -0.0],
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        np.random.default_rng(17).uniform(-1.0, 1.0, 100_000)])
    t = np.concatenate([[np.nan], t[np.abs(t) <= r]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (t, t[:2000].reshape(2, -1)):
            assert _same(kernel_cdf(kern, x), kernels._integral(kern, x, 0))
            # excess moments at s >= 0, -0.0 included
            s = np.where(x < 0.0, -x, x)
            for k in (1, 2):
                assert _same(kernel_partial_moment(kern, x, k),
                             kernels._integral(kern, x, k))
                assert _same(kernel_excess(kern, s, k), kernels._excess(kern, s, k))


def test_parse_kernel():
    assert parse_kernel("gaussian").kind == "gaussian"
    assert parse_kernel("bump").kind == "bump"
    with pytest.raises(InputError):
        parse_kernel("uniform")
    with pytest.raises(InputError, match="unknown kernel kind"):
        MollifierKernel("uniform")
