import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mollikit import quadratic
from mollikit.distributions import standard_normal
from mollikit.errors import InputError, MollikitError
from mollikit.estimator import LinearSample, fit_smoothed
from mollikit.kernels import bump_kernel
from mollikit.losses import absolute_loss, check_loss, expected_curvature, huber_loss
from mollikit.montecarlo import ExperimentConfig, generate_sample
from mollikit.quadratic import (QuadraticApprox, approximation_gap, beta_Q,
                                beta_gap, build_quadratic, curvature_plugin,
                                loglog_scale, probe_ball, q_value, tilde_L)

A_NORMAL = 0.3989422804014327


def _known_sample(seed, n, theta0=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(1, 1, n)
    e = rng.standard_normal(n)
    return LinearSample(x=x, y=x * theta0 + e, e=e,
                        theta0=np.array([theta0]))


# ---------------------------------------------------------------------------
# tilde_L
# ---------------------------------------------------------------------------

def test_tilde_L_zero_at_origin():
    s = _known_sample(0, 25)
    assert tilde_L(s, check_loss(0.5), [0.0]) == 0.0


def test_tilde_L_single_observation_absolute():
    s = LinearSample(x=np.array([1.0]), y=np.array([1.0]),
                     e=np.array([0.0]), theta0=np.array([1.0]))
    for b in (-2.0, 0.5, 3.0):
        assert tilde_L(s, absolute_loss(), [b]) == pytest.approx(abs(b))


def test_tilde_L_matches_brute_force_loop():
    s = _known_sample(1, 5)
    loss = check_loss(0.3)
    beta = np.array([0.7])
    expected = 0.0
    for i in range(5):
        u = s.e[i] - s.x[i, 0] * beta[0] / np.sqrt(5)
        expected += float((u) * (0.3 - (u < 0)) - (s.e[i]) * (0.3 - (s.e[i] < 0)))
    assert tilde_L(s, loss, beta) == pytest.approx(expected, abs=1e-12)


def test_tilde_L_requires_truth():
    s = LinearSample(x=np.ones(3), y=np.arange(3.0))
    with pytest.raises(InputError, match="sample lacks true errors"):
        tilde_L(s, absolute_loss(), [0.0])


# ---------------------------------------------------------------------------
# build_quadratic / q_value / beta_Q
# ---------------------------------------------------------------------------

def test_score_zero_when_subgradient_vanishes():
    x = np.ones(4)
    s = LinearSample(x=x, y=x * 1.0, e=np.zeros(4), theta0=np.array([1.0]))
    q = build_quadratic(s, huber_loss(1.0), a=1.0)
    assert np.all(q.score == 0.0)
    assert beta_Q(q) == pytest.approx(0.0)


def test_score_cancels_by_symmetry():
    s = LinearSample(x=np.ones(2), y=np.array([0.0, 2.0]),
                     e=np.array([-1.0, 1.0]), theta0=np.array([1.0]))
    q = build_quadratic(s, absolute_loss(), a=1.0)
    assert q.score[0] == pytest.approx(0.0)


def test_build_quadratic_matches_loop():
    s = _known_sample(2, 4)
    loss = check_loss(0.4)
    q = build_quadratic(s, loss, a=0.7)
    score = sum((0.4 - (s.e[i] < 0)) * s.x[i, 0] for i in range(4)) / 2.0
    gram = sum(s.x[i, 0] ** 2 for i in range(4)) / 4.0
    assert q.score[0] == pytest.approx(score, abs=1e-12)
    assert q.gram[0, 0] == pytest.approx(gram, abs=1e-12)


def test_build_quadratic_validation():
    s = _known_sample(3, 10)
    with pytest.raises(InputError, match="curvature constant must be > 0"):
        build_quadratic(s, check_loss(0.5), a=0.0)
    bare = LinearSample(x=np.ones(3), y=np.arange(3.0))
    with pytest.raises(InputError, match="sample lacks true errors"):
        build_quadratic(bare, check_loss(0.5), a=1.0)


def test_q_value_examples():
    q = QuadraticApprox(score=np.array([3.0]), gram=np.array([[2.0]]), a=0.5)
    assert q_value(q, [0.0]) == 0.0
    assert beta_Q(q)[0] == pytest.approx(3.0)
    bq = beta_Q(q)
    assert q_value(q, bq) == pytest.approx(-0.5 * q.a * bq @ q.gram @ bq)
    assert q_value(q, bq) <= 0.0


def test_q_value_identity_gram():
    s = np.array([1.0, -2.0])
    q = QuadraticApprox(score=s, gram=np.eye(2), a=1.0)
    beta = np.array([0.3, 0.4])
    assert q_value(q, beta) == pytest.approx(-s @ beta + 0.5 * beta @ beta)
    assert np.allclose(beta_Q(q), s)


def test_beta_Q_minimality():
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(2, 2))
    q = QuadraticApprox(score=rng.normal(size=2),
                        gram=mat @ mat.T + 0.5 * np.eye(2), a=0.8)
    bq = beta_Q(q)
    base = q_value(q, bq)
    for _ in range(100):
        pert = rng.normal(size=2)
        assert q_value(q, bq + 0.01 * pert) >= base - 1e-12


def test_beta_Q_uniqueness_margin():
    q = QuadraticApprox(score=np.array([1.0, 2.0]),
                        gram=np.array([[2.0, 0.3], [0.3, 1.0]]), a=1.0)
    bq = beta_Q(q)
    base = q_value(q, bq)
    for angle in np.linspace(0, 2 * np.pi, 17)[:-1]:
        v = np.array([np.cos(angle), np.sin(angle)])
        assert q_value(q, bq + 1e-3 * v) > base


def test_beta_Q_singular_gram():
    q = QuadraticApprox(score=np.array([1.0, 1.0]),
                        gram=np.ones((2, 2)), a=1.0)
    with pytest.raises(InputError, match="gram matrix is singular"):
        beta_Q(q)


def test_reformulation_identity():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(3, 3))
    q = QuadraticApprox(score=rng.normal(size=3),
                        gram=mat @ mat.T + np.eye(3), a=0.6)
    bq = beta_Q(q)
    half_norm = 0.5 * q.a * bq @ q.gram @ bq
    for _ in range(50):
        beta = rng.normal(size=3)
        lhs = q_value(q, beta)
        rhs = 0.5 * q.a * (beta - bq) @ q.gram @ (beta - bq) - half_norm
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_curvature_plugin_approaches_analytic():
    s = _known_sample(6, 20_000)
    plug = curvature_plugin(check_loss(0.5), bump_kernel(), 20.0, s.e)
    assert plug == pytest.approx(A_NORMAL, abs=0.05)


# ---------------------------------------------------------------------------
# gap diagnostics
# ---------------------------------------------------------------------------

def test_probe_ball_contains_origin_and_respects_radius():
    pts = probe_ball(1, 2.0, 64)
    assert np.any(np.all(pts == 0.0, axis=1))
    assert np.max(np.abs(pts)) <= 2.0 + 1e-12
    assert np.array_equal(np.unique(np.sign(pts)), [-1, 0, 1])
    pts2 = probe_ball(3, 1.5, 128)
    assert pts2.shape[1] == 3
    assert np.max(np.linalg.norm(pts2, axis=1)) <= 1.5 + 1e-12
    # every point but 0 lies on an axis, and each signed axis reaches
    # the radius
    assert np.all(np.count_nonzero(pts2[1:], axis=1) == 1)
    ends = {tuple(p) for p in pts2 if np.linalg.norm(p) == 1.5}
    assert ends == {tuple(v) for v in np.vstack([np.eye(3), -np.eye(3)]) * 1.5}


def test_evaluators_take_one_point_or_many():
    rng = np.random.default_rng(12)
    x = rng.normal(1, 1, (60, 2))
    e = rng.standard_normal(60)
    theta0 = np.array([1.0, -0.5])
    s = LinearSample(x=x, y=x @ theta0 + e, e=e, theta0=theta0)
    q = build_quadratic(s, check_loss(0.3), A_NORMAL)
    pts = rng.normal(0, 1, (5, 2))
    for f in (lambda b: tilde_L(s, check_loss(0.3), b), lambda b: q_value(q, b)):
        many = f(pts)
        assert many.shape == (5,)
        for b, want in zip(pts, many):
            one = f(b)
            assert isinstance(one, float)
            assert one == pytest.approx(want, rel=1e-14, abs=1e-14)
        # any other shape is refused with a typed error naming d
        for bad in ([0.1, 0.2, 0.3], np.zeros((4, 3)), np.zeros((2, 4, 2))):
            with pytest.raises(InputError, match="2 entries") as info:
                f(bad)
            assert isinstance(info.value, MollikitError)
            assert isinstance(info.value, ValueError)


def test_approximation_gap_refuses_bad_radius():
    s = _known_sample(7, 50)
    for radius in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(InputError, match="radius"):
            approximation_gap(s, check_loss(0.5), A_NORMAL, radius)


def test_approximation_gap_nonnegative_and_deterministic():
    s = _known_sample(7, 100)
    g1 = approximation_gap(s, check_loss(0.5), A_NORMAL, 2.0)
    g2 = approximation_gap(s, check_loss(0.5), A_NORMAL, 2.0)
    assert g1 >= 0.0
    assert g1 == g2
    # the largest gap of the two evaluators over the 512 probe points
    q = build_quadratic(s, check_loss(0.5), A_NORMAL)
    gaps = [abs(tilde_L(s, check_loss(0.5), b) - q_value(q, b))
            for b in probe_ball(1, 2.0, 512)]
    assert g1 == pytest.approx(max(gaps), abs=1e-12)


# a gap in three dimensions, from an interpreter that has not loaded
# scipy.stats: the probe set needs no quasi-random directions
_GAP_IN_3D = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from mollikit.estimator import LinearSample
from mollikit.losses import check_loss
from mollikit.quadratic import approximation_gap
x = np.random.default_rng(3).normal(1, 1, (40, 3))
s = LinearSample(x=x, y=x.sum(axis=1), e=np.zeros(40), theta0=np.ones(3))
assert approximation_gap(s, check_loss(0.5), 0.4, 1.0) >= 0.0
print("scipy.stats" in sys.modules)
"""


def test_gap_in_three_dimensions_leaves_scipy_stats_unloaded():
    src = Path(quadratic.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-I", "-c", _GAP_IN_3D, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_pointwise_gap_decays_with_sample_size():
    # the recentred loss approaches its quadratic surrogate pointwise;
    # over a 16-fold increase in n the median gap shrinks decisively
    loss = check_loss(0.5)
    beta = [1.0]
    meds = {}
    for n in (100, 1600):
        cfg = ExperimentConfig(n=n, replications=120, tau=0.5,
                               error_dist="normal01", m_list=(5.0,),
                               base_seed=210)
        gaps = []
        for j in range(120):
            s = generate_sample(cfg, j)
            q = build_quadratic(s, loss, A_NORMAL)
            gaps.append(abs(tilde_L(s, loss, beta) - q_value(q, beta)))
        meds[n] = float(np.median(gaps))
    assert meds[1600] < 0.7 * meds[100]


def _minimizer_gap(sample, loss, kernel, m, a):
    # distance from the smoothed fit (least-squares start) to the
    # surrogate minimizer, on the surrogate's scale
    fit = fit_smoothed(sample, loss, kernel, m)
    return beta_gap(sample, fit.theta_hat,
                    beta_Q(build_quadratic(sample, loss, a)))[1]


def test_minimizer_gap_zero_errors():
    # with zero errors the huber subgradient vanishes at every point, so
    # the score is exactly zero and the fit sits at the truth
    rng = np.random.default_rng(8)
    x = rng.normal(1, 1, 60)
    s = LinearSample(x=x, y=x * 1.0, e=np.zeros(60), theta0=np.array([1.0]))
    gap = _minimizer_gap(s, huber_loss(1.0), bump_kernel(), 10.0, a=1.0)
    assert gap < 1e-6


def test_minimizer_gap_monitored_trend():
    # the distance shrinks relative to n^{-1/4} log log n as n grows;
    # monitored, not hard-asserted: only gross blowups fail here
    a = A_NORMAL
    ratios = []
    for n in (100, 400):
        cfg = ExperimentConfig(n=n, replications=60, tau=0.5,
                               error_dist="normal01", m_list=(5.0,),
                               base_seed=321)
        gaps = [_minimizer_gap(generate_sample(cfg, j), check_loss(0.5),
                               bump_kernel(), 5.0, a) for j in range(60)]
        ratios.append(np.mean(gaps) / loglog_scale(n))
    assert ratios[1] < 2.0 * ratios[0]


def test_loglog_scale_domain():
    assert loglog_scale(16) > 0.0
    with pytest.raises(InputError):
        loglog_scale(15)
