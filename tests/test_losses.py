import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mollikit.distributions import ErrorDensity, standard_normal, student_t4
from mollikit.errors import InputError
from mollikit.kernels import bump_kernel, gaussian_kernel
from mollikit.losses import (LossSpec, absolute_loss, check_loss,
                             expected_curvature, huber_loss, loss_pieces,
                             loss_subgradient, loss_value, parse_loss,
                             relu_loss)
from mollikit.mollify import PartialMomentSmoother

from reference import t4_cdf_closed_form

ALL_LOSSES = [absolute_loss(), check_loss(0.3), check_loss(0.7),
              huber_loss(1.0), huber_loss(2.5), relu_loss()]

INV_SQRT_2PI = 0.3989422804014327
NORMAL_MASS_PM1 = 0.6826894921370859        # P(|Z| <= 1)


def test_value_examples():
    assert loss_value(relu_loss(), 2.0) == 2.0
    assert loss_value(check_loss(0.3), -1.0) == pytest.approx(0.7)
    assert loss_value(huber_loss(1.0), 2.0) == pytest.approx(1.5)
    assert loss_value(absolute_loss(), -3.5) == 3.5


def test_subgradient_examples():
    assert loss_subgradient(check_loss(0.3), 0.0) == pytest.approx(0.3)
    assert loss_subgradient(huber_loss(1.5), -4.0) == pytest.approx(-1.5)
    assert loss_subgradient(absolute_loss(), 2.0) == 1.0
    assert loss_subgradient(absolute_loss(), 0.0) == 1.0   # right-continuous
    assert loss_subgradient(relu_loss(), 0.0) == 1.0


def test_subgradient_is_nan_at_nan():
    # like the loss value and the smoother's derivative, the subgradient
    # selection passes NaN on; the other entries are unaffected
    u = np.array([np.nan, -2.0, 0.0, 3.0])
    for loss in ALL_LOSSES:
        assert np.isnan(loss_subgradient(loss, np.nan))
        got = loss_subgradient(loss, u)
        assert np.isnan(got[0])
        assert np.array_equal(got[1:], [loss_subgradient(loss, v) for v in u[1:]])


def test_lipschitz_constants():
    assert absolute_loss().lipschitz == 1.0
    assert check_loss(0.3).lipschitz == 0.7
    assert check_loss(0.7).lipschitz == 0.7
    assert huber_loss(1.345).lipschitz == 1.345
    assert relu_loss().lipschitz == 1.0


def test_kinks():
    assert absolute_loss().kinks == (0.0,)
    assert huber_loss(2.0).kinks == (-2.0, 2.0)


@pytest.mark.parametrize("loss", [absolute_loss(), check_loss(0.3), check_loss(0.7),
                                  huber_loss(0.5), huber_loss(1.345), relu_loss()],
                         ids=lambda lo: lo.label)
def test_piece_table_matches_pointwise_definitions(loss):
    pieces = np.array(loss_pieces(loss))        # rows (lo, hi, alpha, slope, quad)
    lo, hi = pieces[:, 0], pieces[:, 1]
    assert lo[0] == -np.inf and hi[-1] == np.inf
    assert np.array_equal(hi[:-1], lo[1:])
    kinks = lo[1:]
    w = np.concatenate([np.linspace(-4, 4, 801), kinks, kinks - 1e-9,
                        kinks + 1e-9])
    # the piece holding w, right-continuous at each kink
    row = pieces[np.searchsorted(kinks, w, side="right")]
    alpha, slope, quad = row[:, 2], row[:, 3], row[:, 4]
    assert np.allclose(alpha + slope * w + 0.5 * quad * w * w,
                       loss_value(loss, w), rtol=1e-15, atol=1e-15)
    assert np.allclose(slope + quad * w, loss_subgradient(loss, w),
                       rtol=1e-15, atol=1e-15)


def test_nonnegative_with_zero_minimum():
    u = np.linspace(-4, 4, 1001)
    for loss in ALL_LOSSES:
        vals = loss_value(loss, u)
        assert np.all(vals >= 0.0)
        assert loss_value(loss, 0.0) == 0.0
    # the ramp attains its minimum on the whole nonpositive axis
    assert np.all(loss_value(relu_loss(), u[u <= 0]) == 0.0)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda lo: lo.label)
def test_convexity_bulk(loss):
    rng = np.random.default_rng(4)
    u = rng.uniform(-10, 10, 10_000)
    v = rng.uniform(-10, 10, 10_000)
    lam = rng.uniform(0, 1, 10_000)
    mix = loss_value(loss, lam * u + (1 - lam) * v)
    bound = lam * loss_value(loss, u) + (1 - lam) * loss_value(loss, v)
    assert np.all(mix <= bound + 1e-12)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda lo: lo.label)
def test_lipschitz_bulk(loss):
    rng = np.random.default_rng(5)
    x = rng.uniform(-10, 10, 10_000)
    u = rng.uniform(-10, 10, 10_000)
    lhs = np.abs(loss_value(loss, x + u) - loss_value(loss, u))
    assert np.all(lhs <= loss.lipschitz * np.abs(x) + 1e-12)


def test_huber_past_the_largest_float_overflows_loudly():
    # c*|x| > DBL_MAX: inf is the correct rounding and numpy's overflow
    # warning the signal; a quiet version would need an error-state
    # switch on the smoother's hot path.  The slope stays finite.
    loss = huber_loss(10.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert loss_value(loss, 1e308) == np.inf
    for kern in (bump_kernel(), gaussian_kernel()):
        s = PartialMomentSmoother(loss, kern, 5.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert s.value(1e308) == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s.derivative(1e308) == 10.0


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda lo: lo.label)
def test_subgradient_supports_the_graph(loss):
    rng = np.random.default_rng(6)
    u = rng.uniform(-6, 6, 10_000)
    v = rng.uniform(-6, 6, 10_000)
    lhs = loss_value(loss, v)
    rhs = loss_value(loss, u) + loss_subgradient(loss, u) * (v - u)
    assert np.all(lhs >= rhs - 1e-12)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0, 1))
def test_midpoint_convexity_property(u, v, lam):
    loss = check_loss(0.25)
    mix = loss_value(loss, lam * u + (1 - lam) * v)
    assert mix <= lam * loss_value(loss, u) + (1 - lam) * loss_value(loss, v) + 1e-12


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda lo: lo.label)
def test_atom_masses_match_subgradient_jumps(loss):
    # the table lists every kink, and a_i is the jump the subgradient
    # makes across it
    assert tuple(k for k, _, _ in loss.jumps) == loss.kinks
    eps = 1e-9
    for k, jump, _ in loss.jumps:
        seen = loss_subgradient(loss, k + eps) - loss_subgradient(loss, k - eps)
        assert seen == pytest.approx(jump, abs=1e-6)


@pytest.mark.parametrize("loss,jumps", [
    pytest.param(loss, jumps, id=loss.label) for loss, jumps in [
        (absolute_loss(), ((0.0, 2.0, 0.0),)),
        (relu_loss(), ((0.0, 1.0, 0.0),)),
        *[(check_loss(tau), ((0.0, 1.0, 0.0),))
          for tau in (0.1, 0.3, 0.42, 0.7, 0.9)],
        *[(huber_loss(c), ((-c, 0.0, 1.0), (c, 0.0, -1.0)))
          for c in (0.5, 1.0, 1.345)],
    ]])
def test_curvature_measures(loss, jumps):
    assert loss.jumps == jumps


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda lo: lo.label)
def test_coercive(loss):
    assert loss.coercive is (loss.label != "relu")


def test_expected_curvature_check_normal():
    a = expected_curvature(check_loss(0.5), standard_normal())
    assert a == pytest.approx(INV_SQRT_2PI, abs=1e-12)


def test_expected_curvature_absolute_normal():
    a = expected_curvature(absolute_loss(), standard_normal())
    assert a == pytest.approx(2 * INV_SQRT_2PI, abs=1e-12)
    # Monte Carlo cross-check through the smoothed second derivative
    rng = np.random.default_rng(7)
    e = rng.standard_normal(400_000)
    smoother = PartialMomentSmoother(absolute_loss(), bump_kernel(), 200.0)
    mc = float(np.mean(smoother.second_derivative(e)))
    assert mc == pytest.approx(2 * INV_SQRT_2PI, abs=0.05)


@pytest.mark.parametrize("density,mass", [
    (standard_normal(), NORMAL_MASS_PM1),
    (student_t4(), float(t4_cdf_closed_form(1.0) - t4_cdf_closed_form(-1.0))),
], ids=["normal01", "t4"])
def test_expected_curvature_huber(density, mass):
    a = expected_curvature(huber_loss(1.0), density)
    assert a == pytest.approx(mass, abs=1e-10)


def test_expected_curvature_t4():
    a = expected_curvature(check_loss(0.5), student_t4())
    assert a == pytest.approx(0.375, abs=1e-12)


def test_expected_curvature_rejects_unevaluable_density():
    bad = ErrorDensity(pdf=lambda u: np.where(np.asarray(u) == 0.0, np.nan, 1.0),
                       cdf=lambda u: u)
    with pytest.raises(InputError, match="density not evaluable at 0"):
        expected_curvature(check_loss(0.5), bad)


def test_expected_curvature_rejects_unevaluable_cdf():
    # Huber reads the CDF at its edges, where the curvature jumps; a NaN
    # there is refused by its own name, not passed on as the constant
    bad = ErrorDensity(pdf=standard_normal().pdf,
                       cdf=lambda u: np.nan * np.asarray(u))
    with pytest.raises(InputError, match="CDF not evaluable at -1.0"):
        expected_curvature(huber_loss(1.0), bad)


def test_construction_validation():
    with pytest.raises(InputError):
        check_loss(0.0)
    with pytest.raises(InputError):
        check_loss(1.0)
    with pytest.raises(InputError):
        huber_loss(0.0)
    with pytest.raises(InputError):
        huber_loss(-1.0)
    with pytest.raises(InputError, match="unknown loss kind"):
        LossSpec("hinge")
    with pytest.raises(InputError, match="tau only applies"):
        LossSpec("absolute", tau=0.5)
    with pytest.raises(InputError, match="c only applies"):
        LossSpec("check", tau=0.5, c=1.0)


def test_huber_threshold_must_be_finite():
    # c = inf used to pass as a loss whose value is NaN
    for c in (float("inf"), float("nan")):
        with pytest.raises(InputError, match="huber threshold c must be in"):
            huber_loss(c)
    with pytest.raises(InputError, match="huber threshold c must be in"):
        parse_loss("huber:inf")


def test_bad_loss_parameter_names_the_grammar():
    for bad in ("check:abc", "huber:1e", "check:", "huber:0.5:1"):
        with pytest.raises(InputError, match=re.escape(
                f"bad loss spec {bad!r} (expected abs|check:TAU|huber:C|relu)")):
            parse_loss(bad)


def test_parse_loss_grammar():
    assert parse_loss("abs").kind == "absolute"
    assert parse_loss("relu").kind == "relu"
    assert parse_loss("check:0.3").tau == 0.3
    assert parse_loss("huber:1.345").c == 1.345
    for bad in ("abs:1", "check", "huber", "check:1.5", "pinball:0.5", ""):
        with pytest.raises(InputError):
            parse_loss(bad)


def test_labels_round_trip():
    for loss in ALL_LOSSES:
        again = parse_loss(loss.label)
        assert again == loss
