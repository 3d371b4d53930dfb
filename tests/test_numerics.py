import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrature_oracle import (
    NonConvergence,
    QuadratureResult,
    TailBoundFailure,
    integrate_finite,
    integrate_symmetric_infinite,
)
from spdcgauss.modes import phi_z_thick, spectral_integral_S
from spdcgauss.modes import phi_z_thin as sinc


def erf_via_phi_z_thick(x: float) -> float:
    """erf(x) for x > 0 recovered from the library's phi_z_thick."""
    return phi_z_thick(x) * 2.0 * x / math.sqrt(math.pi)


def erf_via_S(x: float) -> float:
    """erf(x) for x > 0 recovered from the library's S(x / sqrt2)."""
    return spectral_integral_S(x / math.sqrt(2.0)) * 2.0 * x / math.pi ** 1.5

GAUSS_01 = 0.7468241328124271  # int_0^1 exp(-u^2) du = sqrt(pi)/2 * erf(1)


def test_integrate_constant():
    res = integrate_finite(lambda u: np.ones_like(u), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.evaluations >= 1


def test_integrate_gaussian_matches_erf():
    res = integrate_finite(lambda u: np.exp(-u * u), 0.0, 1.0)
    assert res.value == pytest.approx(GAUSS_01, abs=1e-12)
    # cross-check against the library's erf route
    assert res.value == pytest.approx(phi_z_thick(1.0), abs=1e-12)
    assert abs(res.value - GAUSS_01) <= max(res.abs_error_estimate, 1e-15)


def test_integrate_antisymmetric_cosine():
    res = integrate_finite(lambda u: np.cos(np.pi * u), 0.0, 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_integrate_scalar_only_callable():
    res = integrate_finite(lambda u: 1.0, 0.0, 2.0)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_degenerate_interval():
    res = integrate_finite(lambda u: np.exp(u), 3.0, 3.0)
    assert res.value == 0.0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        integrate_finite(lambda u: u, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_finite(lambda u: u, 0.0, 1.0, rel_tol=-1.0)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    a=st.floats(-3, 3, allow_nan=False),
    width=st.floats(0.1, 4, allow_nan=False),
)
def test_polynomial_exactness(coeffs, a, width):
    """Adaptive GK15 is exact (to tolerance) against the analytic
    antiderivative for polynomials."""
    b = a + width
    c = np.array(coeffs)

    def poly(u):
        return np.polynomial.polynomial.polyval(u, c)

    anti = np.polynomial.polynomial.polyint(c)
    exact = (np.polynomial.polynomial.polyval(b, anti)
             - np.polynomial.polynomial.polyval(a, anti))
    res = integrate_finite(poly, a, b)
    assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_nonconvergence_on_pathological_integrand():
    with pytest.raises(NonConvergence):
        integrate_finite(lambda u: np.sin(1e7 * u), 0.0, 1.0,
                         rel_tol=1e-12, abs_tol=1e-14, max_evaluations=3000)


def test_quadrature_result_invariants():
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.0, 0)


def test_infinite_sinc_squared():
    def sinc2(x):
        return sinc(x) ** 2

    res = integrate_symmetric_infinite(sinc2, rel_tol=1e-7,
                                       half_width_hint=100.0, phase_rate=2.0)
    assert res.value == pytest.approx(math.pi, abs=1e-6)


def test_infinite_gaussian():
    res = integrate_symmetric_infinite(lambda x: np.exp(-x * x),
                                       rel_tol=1e-9, half_width_hint=10.0)
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_infinite_lorentzian():
    res = integrate_symmetric_infinite(lambda x: 1.0 / (1.0 + x * x),
                                       rel_tol=1e-7, half_width_hint=100.0)
    assert res.value == pytest.approx(math.pi, abs=1e-6)


def test_tail_bound_failure_on_slow_decay():
    # decays like x^-1.2: absolutely integrable but slower than the
    # required O(1/x^2), so the tail estimate can never meet tolerance
    with pytest.raises(TailBoundFailure):
        integrate_symmetric_infinite(lambda x: (1.0 + np.abs(x)) ** -1.2,
                                     rel_tol=1e-7, half_width_hint=100.0,
                                     max_half_width=1e4)


def test_erf_reference_values():
    for erf in (erf_via_phi_z_thick, erf_via_S):
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)
        assert erf(2.0) == pytest.approx(0.9953222650189527, abs=1e-12)


def test_erf_against_scipy_grid():
    xs = np.linspace(0.0025, 8.0, 3200)
    ref = scipy.special.erf(xs)
    for erf in (erf_via_phi_z_thick, erf_via_S):
        ours = np.array([erf(float(x)) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_erf_oddness_random():
    # the library only evaluates erf at positive arguments; its values
    # there must be those of the odd function scipy continues to x < 0
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(0.01, 10.0, size=1000)
    for x in xs:
        x = float(x)
        assert erf_via_phi_z_thick(x) == pytest.approx(
            -float(scipy.special.erf(-x)), rel=1e-14)


def test_erf_range():
    for x in np.linspace(0.05, 30, 600):
        x = float(x)
        assert 0.0 < phi_z_thick(x) <= min(1.0, math.sqrt(math.pi) / (2.0 * x))
        assert 0.0 < spectral_integral_S(x) <= math.pi


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_sinc_even_and_bounded(x):
    assert sinc(-x) == sinc(x)
    assert abs(sinc(x)) <= 1.0


def test_sinc_array():
    xs = np.array([0.0, math.pi, 2.5])
    vals = sinc(xs)
    assert vals.shape == (3,)
    assert vals[0] == 1.0
