import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri, stdtr, stdtrit
from scipy.stats import t as student_t

from mollikit import distributions
from mollikit.distributions import (normal_pdf, normal_quantile, standard_normal,
                                    student_t4, t4_cdf, t4_pdf, t4_quantile)
from mollikit.errors import InputError
from mollikit.kernels import gaussian_kernel, kernel_partial_moment

from reference import integrate, t4_cdf_closed_form, t4_quantile_closed_form


def test_normal_quantile_examples():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)


def test_normal_quantile_accuracy():
    p = np.linspace(1e-6, 1 - 1e-6, 4001)
    err = np.abs(normal_quantile(p) - ndtri(p))
    assert np.max(err) < 1e-9


def test_normal_quantile_edges():
    assert normal_quantile(0.0) == -np.inf
    assert normal_quantile(1.0) == np.inf
    with pytest.raises(InputError):
        normal_quantile(-0.1)
    with pytest.raises(InputError):
        normal_quantile(1.1)


def test_t4_pdf_at_zero():
    assert t4_pdf(0.0) == 0.375
    assert t4_pdf(0.0) == pytest.approx(student_t(4).pdf(0.0), rel=1e-12)


def test_t4_cdf_closed_form_matches_scipy():
    x = np.linspace(-30, 30, 301)
    assert np.allclose(t4_cdf(x), t4_cdf_closed_form(x), atol=1e-13)


def test_t4_cdf_left_tail_keeps_relative_accuracy():
    # 0.5 + 0.75 s (1 - s^2/3) cancels here: at -1e4 it gives 3.9e-16
    # where the CDF is 3.0e-16, and at -100 it is 6.9e-10 off relative
    x = np.array([-1e4, -100.0])
    assert np.allclose(t4_cdf(x), t4_cdf_closed_form(x), rtol=1e-14, atol=0.0)


def test_t4_pdf_is_cdf_derivative():
    x = np.linspace(-5, 5, 41)
    h = 1e-6
    fd = (t4_cdf(x + h) - t4_cdf(x - h)) / (2 * h)
    assert np.allclose(fd, t4_pdf(x), atol=1e-7)


def test_t4_quantile_examples():
    assert t4_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert t4_quantile(0.975) == pytest.approx(t4_quantile_closed_form(0.975),
                                               abs=1e-9)


def test_t4_quantile_round_trip():
    p = np.linspace(0.001, 0.999, 199)
    q = t4_quantile(p)
    assert np.allclose(t4_cdf(q), p, atol=1e-11)
    assert np.allclose(q, t4_quantile_closed_form(p), atol=1e-8)
    # far tails and the neighbourhood of the median, where the closed
    # form divides by sqrt(4p(1-p)) or takes the root of a tiny difference
    tails = np.logspace(-12, -3, 91)
    centre = 0.5 + np.linspace(-1e-6, 1e-6, 201)
    p = np.concatenate([tails, 1.0 - tails, centre])
    q = t4_quantile(p)
    ref = t4_quantile_closed_form(p)
    assert np.max(np.abs(q - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13


def test_t4_quantile_domain():
    with pytest.raises(InputError):
        t4_quantile(0.0)
    with pytest.raises(InputError):
        t4_quantile(1.0)


def test_densities_have_unit_mass():
    # symmetric breaks, the last one the truncation radius
    for dens, half in ((standard_normal(), (0.5, 1.0, 2.0, 4.0, 8.0, 10.0)),
                       (student_t4(), (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0,
                                       256.0, 2000.0))):
        breaks = sorted({0.0, *half, *(-b for b in half)})
        mass = integrate(dens.pdf, breaks, target=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-7)


def test_normal_pdf_value():
    assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, rel=1e-13)


# |t| on both sides of the normal pdf's underflow point (~38.58) and of
# t4's (~8.5e64), at and past each cap, and past where t*t overflows
CAP_EDGES = [38.5, 38.7, 40.0, 41.0, 1e64, 1e100, 1e154, 1.4e154, 1e300,
             math.inf]


def _normal_closed(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _t4_closed(t):
    return 0.375 * (1.0 + 0.25 * t * t) ** -2.5


def test_pdfs_past_their_caps_are_closed_forms_quietly():
    ts = [sign * t for t in CAP_EDGES for sign in (1.0, -1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pdf, closed in ((normal_pdf, _normal_closed), (t4_pdf, _t4_closed),
                            (student_t4().pdf, _t4_closed)):
            whole = pdf(np.array(ts))
            for t, got in zip(ts, whole):
                want = closed(t)
                assert pdf(t) == got
                if want == 0.0:                 # past the underflow point
                    assert got == 0.0
                else:                           # subnormal at 38.5 and 1e64
                    assert got == pytest.approx(want, rel=1e-13, abs=1e-322)
            assert math.isnan(pdf(math.nan))
            assert np.isnan(pdf(np.array([math.nan, 1.0]))[0])
        # t*t overflowed here, with a warning, before t4's cap
        assert student_t4().pdf(1e200) == 0.0


FIRST_USE_X = [-math.inf, -50.0, -38.0, -3.5, -1e-3, 0.0, 0.7, 2.5, 39.0,
               1e300, math.inf]
FIRST_USE_P = [1e-300, 0.025, 0.3, 0.5, 0.975, 1.0 - 2.0 ** -53]

# the first calls in an interpreter that has imported the CLI but not yet
# scipy.special, each result as float.hex strings
_FIRST_USE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import mollikit.cli
from mollikit.distributions import (normal_quantile, standard_normal, t4_cdf,
                                    t4_quantile)
from mollikit.kernels import gaussian_kernel, kernel_cdf, kernel_partial_moment
x, p = json.loads(sys.argv[2])
hexes = lambda a: [float(v).hex() for v in a]
out = {"loaded_before": "scipy.special" in sys.modules}
g = gaussian_kernel()
out["kernel"] = [hexes(kernel_cdf(g, x))] + [
    hexes(kernel_partial_moment(g, x, k)) for k in (1, 2)]
out["normal_quantile"] = hexes(normal_quantile(p))
out["t4_cdf"] = hexes(t4_cdf(x))
out["t4_quantile"] = hexes(t4_quantile(p))
out["normal_cdf"] = hexes(standard_normal().cdf(x))
print(json.dumps(out))
"""


def test_first_use_of_scipy_special_matches_its_ufuncs_bit_for_bit():
    src = Path(distributions.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", _FIRST_USE, str(src),
         json.dumps([FIRST_USE_X, FIRST_USE_P])],
        capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got.pop("loaded_before") is False

    def hexes(a):
        return [float(v).hex() for v in a]

    x, p = np.array(FIRST_USE_X), np.array(FIRST_USE_P)
    p1, p2 = (kernel_partial_moment(gaussian_kernel(), x, k) for k in (1, 2))
    assert got == {
        "kernel": [hexes(ndtr(x)), hexes(p1), hexes(p2)],
        "normal_quantile": hexes(ndtri(p)),
        "t4_cdf": hexes(stdtr(4.0, x)),
        "t4_quantile": hexes(stdtrit(4.0, p)),
        "normal_cdf": hexes(ndtr(x)),
    }
