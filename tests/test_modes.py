import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import OVERLAP_INSTANCES, overlap_brute_force
from conftest import S_parseval, phi_z_qawo, spectral_integral_S_direct
from spdcgauss.config import GaussianMode, Role
from spdcgauss.curves import (
    DELTA_PHI_MAX,
    phi_z_curve,
    spectral_integral_S,
    uniform_grid,
)
from spdcgauss.errors import ValidationError
from spdcgauss.modes import (
    OverlapGeometry,
    geometry_coefficients,
    longitudinal_k,
    normalization_alpha,
    overlap_phi,
    phi_z_grid,
)


def mode(role, waist=82e-6, lam=702.2e-9, theta=0.0, n=1.65):
    if role is Role.PUMP:
        lam, theta = 351.1e-9, 0.0
    return GaussianMode(waist, lam, theta, n, role)


def erf_via_S(x: float) -> float:
    """erf(x) for x > 0 recovered from the library's S(x / sqrt2)."""
    return spectral_integral_S(x / math.sqrt(2.0)) * 2.0 * x / math.pi ** 1.5


def thick_limit(xi: float) -> float:
    """Phi_z/l at delta_phi = 0, (sqrt(pi)/(2 Xi)) erf(Xi), from math.erf."""
    return math.sqrt(math.pi) / (2.0 * xi) * math.erf(xi)


def phi_z_both_paths(xi: float, dphi: float) -> tuple[float, float]:
    """phi_z_curve at a float delta_phi (the closed form) and phi_z_grid at a
    one-element ndarray (the Gauss-Legendre kernel)."""
    return phi_z_curve(xi)(dphi), float(phi_z_grid(xi, np.array([dphi]))[0])


def geometry(waists=(82e-6, 82e-6, 82e-6), thetas=(0.0, 0.0), l=2e-3):
    p = mode(Role.PUMP, waist=waists[0])
    s = mode(Role.SIGNAL, waist=waists[1], theta=thetas[0])
    i = mode(Role.IDLER, waist=waists[2], theta=thetas[1])
    return geometry_coefficients(p, s, i, l)


def test_alpha_unit_point():
    assert normalization_alpha(math.sqrt(2.0 / math.pi)) == pytest.approx(1.0, rel=1e-15)


def test_alpha_value_and_scaling():
    a = normalization_alpha(82e-6)
    assert a == pytest.approx(9730.299521986164, rel=1e-12)
    assert normalization_alpha(2 * 82e-6) == pytest.approx(a / 2, rel=1e-15)


@pytest.mark.parametrize("waist", [0.0, -82e-6, math.nan, math.inf])
def test_alpha_refuses_a_waist_not_above_zero(waist):
    with pytest.raises(ValidationError, match="waist must be > 0"):
        normalization_alpha(waist)


def test_alpha_normalizes_envelope():
    w = 82e-6
    a = normalization_alpha(w)
    x = np.linspace(-6 * w, 6 * w, 1501)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u_sq = np.exp(-2.0 * (xx * xx + yy * yy) / (w * w))
    integral = np.trapezoid(np.trapezoid(u_sq, x, axis=1), x)
    assert a * a * integral == pytest.approx(1.0, abs=1e-6)


def test_geometry_collinear_degeneracy():
    g = geometry(thetas=(0.0, 0.0))
    assert g.D == 0.0 and g.F == 0.0 and g.H == 0.0 and g.Xi == 0.0
    assert g.A == g.C


def test_geometry_symmetric_equal_waists():
    w, th, l = 82e-6, math.radians(3.1), 2e-3
    g = geometry(waists=(w, w, w), thetas=(th, th), l=l)
    assert g.D == 0.0
    assert g.H == pytest.approx(g.F, rel=1e-15)
    assert g.H == pytest.approx(2 * math.sin(th) ** 2 / w ** 2, rel=1e-12)
    assert g.Xi == pytest.approx(math.sqrt(2) * math.sin(th) * l / (2 * w), rel=1e-12)


def test_geometry_bbo_walkoff():
    g = geometry(thetas=(math.radians(3.1), math.radians(3.1)))
    assert g.Xi == pytest.approx(0.9326706190257006, rel=1e-12)
    assert g.Xi == pytest.approx(0.933, rel=5e-3)


def test_geometry_h_nonnegative_random():
    rng = np.random.default_rng(42)
    n = 100_000
    wp, ws, wi = [rng.uniform(5e-6, 200e-6, n) for _ in range(3)]
    ths, thi = [rng.uniform(0.0, 0.2, n) for _ in range(2)]
    C = 1 / wp**2 + np.cos(ths) ** 2 / ws**2 + np.cos(thi) ** 2 / wi**2
    D = np.sin(2 * ths) / ws**2 - np.sin(2 * thi) / wi**2
    F = np.sin(ths) ** 2 / ws**2 + np.sin(thi) ** 2 / wi**2
    H = F - D * D / (4 * C)
    assert np.all(H >= 0.0)
    # spot-check the dataclass path on a sample
    for k in range(0, n, 10_000):
        g = geometry(waists=(wp[k], ws[k], wi[k]), thetas=(ths[k], thi[k]))
        assert g.H >= 0.0


def test_geometry_requires_roles():
    p, s, i = mode(Role.PUMP), mode(Role.SIGNAL), mode(Role.IDLER)
    with pytest.raises(ValidationError):
        geometry_coefficients(s, p, i, 1e-3)


@pytest.mark.parametrize("l", [0.0, -2e-3, math.nan])
def test_geometry_and_overlap_refuse_a_length_not_above_zero(l):
    p, s, i = mode(Role.PUMP), mode(Role.SIGNAL), mode(Role.IDLER)
    with pytest.raises(ValidationError, match="crystal length must be > 0"):
        geometry_coefficients(p, s, i, l)
    with pytest.raises(ValidationError, match="crystal length must be > 0"):
        overlap_phi(geometry(), 0.0, np.zeros(3), l)


def test_mode_invariants():
    with pytest.raises(ValidationError):
        GaussianMode(-1e-6, 702e-9, 0.0, 1.6, Role.SIGNAL)
    with pytest.raises(ValidationError):
        GaussianMode(82e-6, 702e-9, 0.1, 1.6, Role.PUMP)  # pump must be axial
    with pytest.raises(ValidationError, match="signal.waist"):
        GaussianMode(math.inf, 702e-9, 0.0, 1.6, Role.SIGNAL)
    with pytest.raises(ValidationError, match="idler.theta"):
        GaussianMode(82e-6, 702e-9, math.nan, 1.6, Role.IDLER)
    for lam in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="signal.wavelength must be finite and > 0"):
            GaussianMode(82e-6, lam, 0.0, 1.6, Role.SIGNAL)
    for n in (0.99, math.inf, math.nan):
        with pytest.raises(ValidationError, match="pump.n must be finite and >= 1"):
            GaussianMode(82e-6, 351e-9, 0.0, n, Role.PUMP)


def test_overlap_geometry_invariants():
    with pytest.raises(ValidationError):
        OverlapGeometry(A=1.0, C=2.0, D=0.0, F=0.0, H=0.0, Xi=0.0)  # A < C
    valid = OverlapGeometry(A=2.0, C=1.0, D=0.0, F=0.0, H=0.0, Xi=0.0)
    for negative in ({"F": -1.0}, {"H": -1.0}, {"Xi": -1.0}):
        with pytest.raises(ValidationError, match="F, H and Xi must be >= 0"):
            valid._replace(**negative)


def test_phi_z_grid_of_an_empty_array_is_empty():
    out = phi_z_grid(1.0, np.array([]))
    assert out.shape == (0,) and out.dtype == float


def test_phi_z_anchor_points():
    for xi, dphi, want in ((0.0, 0.0, 1.0), (0.0, math.pi, 0.0), (1.0, 0.0, 0.7468241328124269)):
        for got in phi_z_both_paths(xi, dphi):
            assert got == pytest.approx(want, abs=1e-13)


def test_phi_z_reduces_to_sinc():
    for d in np.linspace(-20.0, 20.0, 1000).tolist():
        for got in phi_z_both_paths(0.0, d):
            assert abs(got - np.sinc(d / np.pi)) < 1e-13


def test_phi_z_erf_identity():
    for xi in np.linspace(0.1, 10.0, 100).tolist() + [50.0, 1000.0]:
        for got in phi_z_both_paths(xi, 0.0):
            assert got == pytest.approx(thick_limit(xi), abs=1e-13)


def test_phi_z_even_and_bounded():
    for xi in (0.0, 0.7, 2.5):
        for d in np.linspace(0.0, 30.0, 400).tolist():
            for plus, minus in zip(phi_z_both_paths(xi, d), phi_z_both_paths(xi, -d)):
                assert abs(plus - minus) <= 1e-12
                assert -0.5 <= plus <= 1.0


def test_phi_z_thin():
    thin = phi_z_curve(0.0)
    assert thin(0.0) == 1.0
    assert thin(math.pi) == pytest.approx(0.0, abs=1e-15)
    # half-power point of the sinc^2 spectrum
    assert thin(1.39155737825151) == pytest.approx(0.7071067811865476, rel=1e-10)


def test_phi_z_thick():
    assert phi_z_curve(1.0)(0.0) == pytest.approx(0.7468241328124269, rel=1e-13)
    assert phi_z_curve(50.0)(0.0) == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-13)
    assert phi_z_curve(1e-8)(0.0) == pytest.approx(1.0, rel=1e-13)
    for xi in (3.0, 5.0, 8.0):
        for got in phi_z_both_paths(xi, 0.0):
            assert thick_limit(xi) == pytest.approx(got, rel=1e-13)


def test_erf_reference_values():
    assert erf_via_S(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)
    assert erf_via_S(2.0) == pytest.approx(0.9953222650189527, abs=1e-12)


def test_erf_against_scipy_grid():
    xs = np.linspace(0.0025, 8.0, 3200)
    ours = np.array([erf_via_S(float(x)) for x in xs])
    assert np.max(np.abs(ours - scipy.special.erf(xs))) < 1e-12


def test_erf_range():
    for x in np.linspace(0.05, 30, 600):
        assert 0.0 < spectral_integral_S(float(x)) <= math.pi


# every finite Xi >= 0, up to the float maximum, where sqrt2 Xi overflows
FINITE_XI = st.floats(min_value=0.0, max_value=sys.float_info.max)


@settings(max_examples=1000, deadline=None)
@given(xi=FINITE_XI)
@example(xi=1e308)
@example(xi=sys.float_info.max)
def test_spectral_integral_in_range_over_all_floats(xi):
    assert 0.0 < spectral_integral_S(xi) <= math.pi


@settings(max_examples=1000, deadline=None)
@given(a=FINITE_XI, b=FINITE_XI)
@example(a=0.12551529419264107, b=0.1255152941926411)  # S rises by 3 ulp from a to b
def test_spectral_integral_non_increasing_to_4_ulp(a, b):
    # S is within ~2 ulp of its exact value (erf's rounding, then the product's and the
    # quotient's), so where b > a, S(b) may exceed S(a) by up to 4 ulp; a is also paired
    # with the next float up, where a rise is likeliest
    for lo, hi in (sorted((a, b)), (a, math.nextafter(a, math.inf))):
        if hi < math.inf:
            s_lo = spectral_integral_S(lo)
            assert spectral_integral_S(hi) <= s_lo + 4 * math.ulp(s_lo), (lo, hi)


@settings(max_examples=1000, deadline=None)
@given(xi=FINITE_XI, delta_phi=st.floats(min_value=-DELTA_PHI_MAX, max_value=DELTA_PHI_MAX))
@example(xi=sys.float_info.max, delta_phi=DELTA_PHI_MAX)
def test_phi_z_curve_bounded_and_even_over_all_floats(xi, delta_phi):
    curve = phi_z_curve(xi)
    value = curve(delta_phi)
    assert abs(value) <= 1.0
    assert curve(-delta_phi) == value


def test_overlap_phi_collinear_equal_waists():
    w, l = 82e-6, 2e-3
    g = geometry(waists=(w, w, w), thetas=(0.0, 0.0), l=l)
    phi = overlap_phi(g, 0.0, np.array([0.0]), l)
    assert phi.shape == (1,) and phi[0] == pytest.approx(math.pi * w * w * l / 3.0, rel=1e-9)


def test_overlap_phi_transverse_factorization():
    w, l = 50e-6, 1e-3
    g = geometry(waists=(w, w, w), thetas=(math.radians(2.0), math.radians(2.0)), l=l)
    base = overlap_phi(g, 0.0, np.array([500.0]), l)[0]
    dky = 4000.0
    # equal waists and angles: D = 0, so dky only enters the Gaussian factor
    shifted = overlap_phi(g, dky, np.array([500.0]), l)[0]
    assert shifted / base == pytest.approx(math.exp(-dky**2 / (4 * g.C)), rel=1e-9)


def test_longitudinal_k_collinear_is_dkz():
    g = geometry(thetas=(0.0, 0.0))
    assert longitudinal_k(g, 1234.0, 777.0) == 777.0  # D = 0 collinear
    g2 = geometry(waists=(30e-6, 20e-6, 40e-6), thetas=(0.03, 0.01))
    assert longitudinal_k(g2, 0.0, 777.0) == 777.0


def test_overlap_phi_brute_force_single():
    c = OVERLAP_INSTANCES[0]
    p = GaussianMode(c["Wp"], 351.1e-9, 0.0, 1.65, Role.PUMP)
    s = GaussianMode(c["Ws"], 702.2e-9, c["th_s"], 1.65, Role.SIGNAL)
    i = GaussianMode(c["Wi"], 702.2e-9, c["th_i"], 1.65, Role.IDLER)
    g = geometry_coefficients(p, s, i, c["l"])
    closed = overlap_phi(g, c["dky"], np.array([c["dkz"]]), c["l"])[0]
    brute = overlap_brute_force(**c)
    assert closed == pytest.approx(brute, rel=1e-3)


def test_spectral_integral_anchors():
    assert spectral_integral_S(0.0) == pytest.approx(math.pi, abs=1e-6)
    assert spectral_integral_S(5e-9) == math.pi  # the anchor below Xi = 1e-8
    assert spectral_integral_S(0.933) == pytest.approx(1.9791643406568558, abs=1e-6)
    # large-walk-off asymptote pi^{3/2} / (2 sqrt(2) Xi)
    assert spectral_integral_S(5.0) == pytest.approx(0.3937402486430604, abs=1e-6)


def test_spectral_integral_parseval_grid():
    for xi in np.linspace(0.0, 5.0, 11):
        xi = float(xi)
        assert spectral_integral_S(xi) == pytest.approx(S_parseval(xi), abs=1e-6)


def test_spectral_integral_monotone_decreasing():
    xis = np.linspace(0.0, 5.0, 50)
    vals = [spectral_integral_S(float(x)) for x in xis]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("xi", [math.nan, math.inf, -1.0])
def test_spectral_integral_rejects_bad_xi(xi):
    with pytest.raises(ValidationError):
        spectral_integral_S(xi)


@pytest.mark.parametrize("xi, dphi", [(math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0),
                                      (1.0, math.nan), (1.0, np.array([0.0, math.inf])),
                                      (1.0, 2e5)])
def test_phi_z_rejects_bad_inputs(xi, dphi):
    with pytest.raises(ValidationError):
        phi_z_grid(xi, np.atleast_1d(dphi))
    if np.ndim(dphi) == 0:
        with pytest.raises(ValidationError):
            phi_z_curve(xi)(dphi)


@pytest.mark.parametrize("xi", [0.0, 0.933, 2.0, 5.0])
def test_spectral_integral_matches_nested_quadrature(xi):
    """The closed form against the integral of the QAWO |Phi_z/l|^2 over the
    real line with its 1/delta_phi^2 tail in closed form (an independent route)."""
    assert spectral_integral_S(xi) == pytest.approx(spectral_integral_S_direct(xi), abs=1e-8)


# far from the grid, where phi_z_grid's cos(delta_phi u) rounds to ~4e-13;
# in the grid they would make that kernel tile ~1e5 nodes per row
FAR_DELTA_PHI = [-1e3, 1e3, 1e4, -1e5, 1e5, 98205.35005496268]


XI_QAWO = [0.0, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.5, 6.4, 50.0, 1000.0]


@pytest.mark.parametrize("xi, span", [(xi, 300.0) for xi in XI_QAWO] + [(0.5, 1000.0)])
def test_phi_z_matches_adaptive_quadrature(xi, span):
    # phi_z_grid, each set of points as one array, against QAWO
    for points in (np.linspace(-span, span, 601).tolist(), FAR_DELTA_PHI):
        ref = np.array([phi_z_qawo(xi, d) for d in points])
        assert np.max(np.abs(phi_z_grid(xi, np.array(points)) - ref)) < 1e-12


@pytest.mark.parametrize("xi", XI_QAWO)
def test_phi_z_float_path_matches_adaptive_quadrature(xi):
    # the closed form's two terms cancel to ~1e-16/Xi, which only shows at
    # small |delta_phi|; the power series below Xi = 1e-2 keeps 1e-12
    for points in (np.linspace(-300.0, 300.0, 601).tolist(), FAR_DELTA_PHI):
        ref = np.array([phi_z_qawo(xi, d) for d in points])
        assert np.max(np.abs([phi_z_curve(xi)(d) for d in points] - ref)) < 1e-12


def test_phi_z_at_delta_phi_max_matches_sinc():
    # one node row here holds ~1e5 doubles, more than a whole cos block
    dphi = [-DELTA_PHI_MAX, -DELTA_PHI_MAX + 0.5, DELTA_PHI_MAX - 1.25, DELTA_PHI_MAX]
    sinc = np.sinc(np.array(dphi) / np.pi)
    assert np.max(np.abs(phi_z_grid(0.0, dphi) - sinc)) < 1e-12
    assert abs(phi_z_curve(0.0)(DELTA_PHI_MAX) - sinc[-1]) < 1e-12


def test_stored_legendre_rule_is_leggauss_32():
    from numpy.polynomial.legendre import leggauss

    from spdcgauss.modes import _GL_RULE
    x, w = np.array(_GL_RULE).T  # the nodes > 0, mirrored into the full rule
    want_x, want_w = leggauss(32)
    assert np.array_equal(np.concatenate((-x[::-1], x)), want_x)
    assert np.array_equal(np.concatenate((w[::-1], w)), want_w)


@pytest.mark.parametrize("xi", [0.0, 1e-6, 5e-3, 0.5, 2.0, 40.0])
def test_phi_z_float_path_is_exactly_even(xi):
    for d in (1e-3, 0.5, 3.0, 15.0, 123.4, 99999.5):
        assert phi_z_curve(xi)(-d).hex() == phi_z_curve(xi)(d).hex()


def test_faddeeva_matches_scipy_wofz():
    # the half-plane phi_z_curve reaches: Im z = Xi in [1e-2, 27], where exp(-Xi^2)
    # has not underflowed, and Re z = |delta_phi|/(2 Xi) up to 5e6
    from spdcgauss.curves import _faddeeva_line
    x = np.concatenate((np.linspace(0.0, 60.0, 601), np.geomspace(60.0, 5e6, 61)))
    for y in (1e-2, 0.05, 0.3, 1.0, 2.0, 4.0, 8.0, 27.0):
        w = _faddeeva_line(y)
        got = np.array([w(float(v)) for v in x])
        want = scipy.special.wofz(x + 1j * y)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, y


def test_stored_weideman_coefficients_follow_the_fft_recipe():
    # Weideman (1994): a_n from the FFT of exp(-t^2) (L^2 + t^2) at t = L tan(theta/2)
    from spdcgauss.curves import _WEIDEMAN_COEFFS, _WEIDEMAN_L
    n = len(_WEIDEMAN_COEFFS)
    m = 2 * n
    assert n == 40 and _WEIDEMAN_L == math.sqrt(n / math.sqrt(2))
    t = _WEIDEMAN_L * np.tan(np.arange(-m + 1, m) * np.pi / m / 2)
    f = np.concatenate(([0.0], np.exp(-t * t) * (_WEIDEMAN_L ** 2 + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    # highest power first; two FFT implementations differ by ~4e-16 here
    np.testing.assert_allclose(_WEIDEMAN_COEFFS, a[n:0:-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("lo, hi, points", [
    (0.0, 5.0, 251), (0.1, 3.0, 581), (-15.0, 15.0, 2001), (-0.0, 1.0, 2), (0.3, 0.7, 777),
    (-1e5, 1e5, 5), (1e300, 1.7976931348623157e308, 9), (-8e307, 8e307, 3),
    (0.0, 1e-320, 1000), (0.0, 5e-324, 3), (-5e-324, 5e-324, 7), (1.0, 1.0 + 2e-16, 10),
])
def test_uniform_grid_is_bit_equal_to_linspace(lo, hi, points):
    assert uniform_grid(lo, hi, points) == np.linspace(lo, hi, points).tolist()


@pytest.mark.parametrize("lo, hi", [(-1e300, 1.7976931348623157e308),
                                    (-1.7976931348623157e308, 1.7976931348623157e308)])
def test_uniform_grid_overflows_where_linspace_does(lo, hi):
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        np.linspace(lo, hi, 5)
    with pytest.raises(OverflowError):
        uniform_grid(lo, hi, 5)
