import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from mollikit.kernels import (MollifierKernel, bump_kernel, bump_normalizer,
                              gaussian_kernel, kernel_abs_moment, kernel_cdf,
                              kernel_integrals, kernel_partial_moment,
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
    with pytest.raises(ValueError):
        kernel_abs_moment(BUMP, 3)
    for kern in (BUMP, GAUSS):
        with pytest.raises(ValueError, match="k must be 1 or 2"):
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
        cdf, p1, p2 = kernel_integrals(GAUSS, ts, (0, 1, 2))
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
def test_shared_lookup_matches_one_table_lookups(kern):
    # one row search (bump) or one Phi and phi (Gaussian) for several
    # integrals gives each integral exactly as its own lookup does
    nodes = np.linspace(-1.0, 1.0, 8193)
    t = np.concatenate([
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200],
        np.random.default_rng(17).uniform(-1.2, 1.2, 100_000)])
    single = [kernel_cdf(kern, t)] + [kernel_partial_moment(kern, t, k)
                                      for k in (1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ks in [(0, 1, 2), (0, 1), (0, 2), (1, 2), (2, 1, 0)]:
            for k, got in zip(ks, kernel_integrals(kern, t, ks)):
                assert _same(got, single[k])
        for k in (0, 1, 2):
            (alone,) = kernel_integrals(kern, t, (k,))
            assert _same(alone, single[k])
        # a 2-D argument, as the smoother passes one row per kink
        rows = t[:2000].reshape(2, -1)
        for k, got in enumerate(kernel_integrals(kern, rows, (0, 1, 2))):
            assert _same(got.ravel(), single[k][:2000])


def test_parse_kernel():
    assert parse_kernel("gaussian").kind == "gaussian"
    assert parse_kernel("bump").kind == "bump"
    with pytest.raises(ValueError):
        parse_kernel("uniform")
    with pytest.raises(ValueError, match="unknown kernel kind"):
        MollifierKernel("uniform")
