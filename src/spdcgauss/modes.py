"""Gaussian-mode geometry and the three-mode overlap.

The pump defines the z-axis; signal and idler propagate in the y-z plane
tilted by internal angles theta_s, theta_i (opposite senses).  Each mode
carries a transverse envelope exp(-(x^2+y^2)/W^2) in its own frame.
Integrating the product of the three envelopes (times exp(i dk.r)) over
the transverse plane leaves a 1-D integral along the crystal:

    Phi(dk) = pi/sqrt(A C) * exp(-dk_y^2/(4C)) * Phi_z
    Phi_z   = l * int_0^1 exp(-Xi^2 u^2) cos(dphi u) du

with the quadratic-form coefficients A, C, D, F, H assembled from the
waists and tilt angles, Xi = sqrt(H) l/2 the walk-off parameter and
dphi = K l/2 the accumulated longitudinal phase mismatch.  Collinear
geometry (Xi = 0) reproduces the familiar sinc; large Xi is the
overlap-limited regime where the crystal length drops out.

Both numerical quantities have a fixed cost.  At a float dphi, Phi_z is
a closed form in the Faddeeva function w, evaluated by Weideman's
rational approximation (a power series in Xi^2 where Xi is small):
phi_z and phi_z_curve.  phi_z_grid, the one array function, takes an
ndarray of dphi and integrates an entire function over [0, 1] on a
composite Gauss-Legendre rule whose panel count follows the largest phase
and the Gaussian decay.  The spectral integral S(Xi) = int |Phi_z/l|^2
d(dphi) is evaluated in closed form through Plancherel's identity.  The
waist-ratio curve (through A) lives here too.  numpy loads inside
phi_z_grid only, and never numpy.polynomial; everything else here is
plain float math.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NegativeH, ValidationError

__all__ = [
    "Role",
    "GaussianMode",
    "OverlapGeometry",
    "normalization_alpha",
    "geometry_coefficients",
    "phi_z",
    "phi_z_grid",
    "phi_z_curve",
    "phi_z_thin",
    "phi_z_thick",
    "longitudinal_k",
    "overlap_phi",
    "spectral_integral_S",
    "waist_scaling",
    "optimal_gamma",
    "uniform_grid",
    "gamma_sweep",
]

# magnitude below which a negative H = F - D^2/(4C) is treated as
# floating-point cancellation and clamped to zero (1/m^2)
H_CLAMP = 1e-18

# largest |delta_phi| phi_z accepts: phi_z_grid's rule takes about |delta_phi|
# nodes, so one overlap value costs at most ~1e5 cosines, one cos-block row of 0.8 MB
DELTA_PHI_MAX = 1e5
# below this Xi the closed form of phi_z_curve, which loses ~1e-16/Xi to cancellation,
# gives way to its power series in Xi^2, whose first omitted term is below Xi^6/42
_SERIES_XI = 1e-2
# Weideman's N = 40 rational approximation of the Faddeeva function (SIAM J. Numer.
# Anal. 31, 1497 (1994)): the scale L = sqrt(N/sqrt(2)) and the coefficients of the
# polynomial in (L + iz)/(L - iz), highest power first, from his FFT recipe
_WEIDEMAN_L = math.sqrt(40 / math.sqrt(2.0))
_WEIDEMAN_COEFFS = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188, 0.07182361779074328,
    0.15504263802479504, 0.2998943799615006, 0.5266528988277086, 0.8472174576593815,
    1.2563815675765133, 1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705)
# phi_z_grid truncates its range where exp(-Xi^2 u^2) < 1e-27, at u = 8/Xi
_GAUSS_CUTOFF = 8.0
# rows of one cos(delta_phi u) block hold at most this many doubles (or one row)
_BLOCK = 1 << 15
# (node, weight) of leggauss(32), the rule phi_z_grid tiles over each panel, for node > 0
_GL_RULE = (
    (0.048307665687738324, 0.09654008851472766), (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451), (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378), (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023), (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168), (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609), (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765), (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743), (0.9972638618494816, 0.007018610009470506))


class Role(str, enum.Enum):
    PUMP = "pump"
    SIGNAL = "signal"
    IDLER = "idler"


@dataclass(frozen=True)
class GaussianMode:
    """One paraxial beam: waist, vacuum wavelength, internal tilt,
    refractive index seen by the mode, and its role.

    ``theta`` is the tilt of the mode axis relative to the pump axis in
    crystal coordinates; the signal tilts one way, the idler the other
    (the sign convention is handled inside the geometry assembly, both
    angles are given as magnitudes here).  The pump defines the z-axis
    and must have theta = 0.
    """

    waist_w: float
    lambda_vac: float
    theta: float
    n: float
    role: Role

    def __post_init__(self):
        if not 0 < self.waist_w < math.inf:
            raise ValidationError(f"{self.role.value}.waist must be finite and > 0")
        if not 0 < self.lambda_vac < math.inf:
            raise ValidationError(f"{self.role.value}.wavelength must be finite and > 0")
        if not 1.0 <= self.n < math.inf:
            raise ValidationError(f"{self.role.value}.n must be finite and >= 1")
        if not math.isfinite(self.theta):
            raise ValidationError(f"{self.role.value}.theta must be finite")
        if self.role is Role.PUMP and self.theta != 0.0:
            raise ValidationError("pump tilt must be 0 (pump defines the z-axis)")

    @property
    def omega(self) -> float:
        from .constants import C_LIGHT
        return 2.0 * math.pi * C_LIGHT / self.lambda_vac


@dataclass(frozen=True)
class OverlapGeometry:
    """Quadratic-form coefficients of the three-mode overlap (1/m^2 for
    A, C, D, F, H), plus the derived dimensionless walk-off parameter
    Xi = sqrt(H) l/2."""

    A: float
    C: float
    D: float
    F: float
    H: float
    Xi: float

    def __post_init__(self):
        if not (self.A >= self.C > 0):
            raise ValidationError("require A >= C > 0")
        if self.F < 0 or self.H < 0 or self.Xi < 0:
            raise ValidationError("F, H and Xi must be >= 0")


def normalization_alpha(waist_w: float) -> float:
    """Envelope normalization alpha = sqrt(2/(pi W^2)) such that
    alpha^2 * integral |U|^2 dx dy = 1."""
    if not waist_w > 0:
        raise ValidationError("waist must be > 0")
    return math.sqrt(2.0 / (math.pi * waist_w * waist_w))


def geometry_coefficients(
    pump: GaussianMode,
    signal: GaussianMode,
    idler: GaussianMode,
    crystal_length_l: float,
) -> OverlapGeometry:
    """Assemble A, C, D, F, H and Xi from waists and internal tilts.

    A = sum 1/W^2
    C = 1/Wp^2 + cos^2(th_s)/Ws^2 + cos^2(th_i)/Wi^2
    D = sin(2 th_s)/Ws^2 - sin(2 th_i)/Wi^2
    F = sin^2(th_s)/Ws^2 + sin^2(th_i)/Wi^2
    H = F - D^2/(4C),  Xi = sqrt(H) l/2

    H >= 0 holds exactly (Cauchy-Schwarz); a tiny negative H from
    cancellation is clamped, anything below -H_CLAMP raises
    :class:`NegativeH`.
    """
    if pump.role is not Role.PUMP or signal.role is not Role.SIGNAL \
            or idler.role is not Role.IDLER:
        raise ValidationError("modes must be passed as (pump, signal, idler)")
    if not crystal_length_l > 0:
        raise ValidationError("crystal length must be > 0")
    wp2 = pump.waist_w ** 2
    ws2 = signal.waist_w ** 2
    wi2 = idler.waist_w ** 2
    ths, thi = signal.theta, idler.theta
    A = 1.0 / wp2 + 1.0 / ws2 + 1.0 / wi2
    C = 1.0 / wp2 + math.cos(ths) ** 2 / ws2 + math.cos(thi) ** 2 / wi2
    D = math.sin(2.0 * ths) / ws2 - math.sin(2.0 * thi) / wi2
    F = math.sin(ths) ** 2 / ws2 + math.sin(thi) ** 2 / wi2
    H = F - D * D / (4.0 * C)
    if H < 0.0:
        if H < -H_CLAMP:
            raise NegativeH(f"H = {H:.3e} 1/m^2; inconsistent geometry inputs")
        H = 0.0
    Xi = math.sqrt(H) * crystal_length_l / 2.0
    return OverlapGeometry(A=A, C=C, D=D, F=F, H=H, Xi=Xi)


def _checked_delta_phi(delta_phi) -> float:
    d = abs(delta_phi)
    if not d <= DELTA_PHI_MAX:
        raise ValidationError(
            f"delta_phi must be finite with |delta_phi| <= {DELTA_PHI_MAX:g}")
    return d


def phi_z(xi: float, delta_phi: float) -> float:
    """Dimensionless longitudinal overlap

        Phi_z / l = int_0^1 exp(-Xi^2 u^2) cos(delta_phi u) du

    at a float ``delta_phi`` with ``|delta_phi| <= DELTA_PHI_MAX``: the
    closed form of :func:`phi_z_curve`, in float math.  Equals
    sinc(delta_phi) at Xi = 0 and (sqrt(pi)/(2 Xi)) erf(Xi) at delta_phi = 0.
    :func:`phi_z_grid` evaluates an array of ``delta_phi``.
    """
    return phi_z_curve(xi)(delta_phi)


def phi_z_grid(xi: float, delta_phi):
    """:func:`phi_z` over an array of ``delta_phi``, as a 1-D ndarray: a
    32-point Gauss-Legendre rule tiled over equal panels.  For Xi > 8 the
    range is cut at u = U = 8/Xi, where the weight has fallen below 1e-27
    (otherwise U = 1); the ``1 + ceil(max(|delta_phi|, 2 Xi) U / 32)``
    panels on [0, U], with the array's largest |delta_phi|, keep each panel
    within 32 radians of phase and of Gaussian decay, where the rule's error
    falls off faster than exponentially.
    """
    import numpy as np
    if not 0 <= xi < math.inf:
        raise ValidationError("Xi must be finite and >= 0")
    arr = np.atleast_1d(np.asarray(delta_phi, dtype=float))
    if arr.size == 0:
        return np.empty(0)
    amax = _checked_delta_phi(float(np.max(np.abs(arr))))
    upper = min(1.0, _GAUSS_CUTOFF / xi) if xi > 0 else 1.0
    x, w = np.array(_GL_RULE).T
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    panels = 1 + math.ceil(max(amax, 2.0 * xi) * upper / x.size)
    h = upper / panels
    u = (h * np.arange(panels)[:, None] + (0.5 * h) * (x + 1.0)).ravel()
    weights = np.tile((0.5 * h) * w, panels) * np.exp(-np.square(xi * u))
    out = np.empty(arr.size)
    rows = max(1, _BLOCK // u.size)  # one row once u.size > 2^15: |delta_phi| > ~3.3e4
    for i in range(0, arr.size, rows):
        block = np.outer(arr[i:i + rows], u)
        out[i:i + rows] = np.cos(block, out=block) @ weights
    return out


def _faddeeva_line(y: float):
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz) along the line
    Im z = y >= 0, as a function of a float x = Re z: Weideman's N = 40
    rational approximation

        w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),  Z = (L + iz)/(L - iz),

    with ``p`` the polynomial of ``_WEIDEMAN_COEFFS``; L - iz = (L + y) - ix.
    """
    lm, lp = _WEIDEMAN_L - y, _WEIDEMAN_L + y
    rsqrt_pi = 1.0 / math.sqrt(math.pi)

    def w(x):
        b = complex(lp, -x)
        z = complex(lm, x) / b
        p = 0.0
        for a in _WEIDEMAN_COEFFS:
            p = p * z + a
        return (2.0 * p / b + rsqrt_pi) / b
    return w


def phi_z_curve(xi: float):
    """:func:`phi_z` at fixed Xi as a function of a float ``delta_phi``,
    in float math; the constants of Xi are computed once per curve.

    Completing the square in the exponent gives, with x = delta_phi/(2 Xi),

        Phi_z / l = sqrt(pi)/(2 Xi) [exp(-x^2) - Re(exp(-Xi^2 + i delta_phi) w(x + i Xi))]

    with w the Faddeeva function (:func:`_faddeeva_line`).  Below Xi =
    ``_SERIES_XI`` the two terms cancel to within ~1e-16/Xi of each other,
    and the power series

        sinc(delta_phi) - Xi^2 M2 + Xi^4 M4 / 2,  M_n = int_0^1 u^n cos(delta_phi u) du

    takes over (M2 and M4 by their Taylor series for |delta_phi| < 1e-2).
    The curve is exactly even: it evaluates |delta_phi|.
    """
    if not 0 <= xi < math.inf:
        raise ValidationError("Xi must be finite and >= 0")
    if xi < _SERIES_XI:
        xi2 = xi * xi
        xi4_half = 0.5 * xi2 * xi2

        def curve(delta_phi):
            d = _checked_delta_phi(delta_phi)
            d2 = d * d
            if d < 1e-2:  # the closed forms of M2 and M4 cancel here
                return (1.0 - d2 / 6.0 + d2 * d2 / 120.0 - xi2 * (1.0 / 3.0 - 0.1 * d2)
                        + xi4_half * (0.2 - d2 / 14.0))
            s, c = math.sin(d), math.cos(d)
            m2 = ((d2 - 2.0) * s + 2.0 * d * c) / (d2 * d)
            m4 = ((d2 * d2 - 12.0 * d2 + 24.0) * s + (4.0 * d2 - 24.0) * d * c) / (d2 * d2 * d)
            return s / d - xi2 * m2 + xi4_half * m4
        return curve
    scale = 0.5 * math.sqrt(math.pi) / xi  # sqrt(pi)/(2 Xi), finite up to the float maximum
    half_inv = 0.5 / xi
    damping = math.exp(-xi * xi)
    w = _faddeeva_line(xi)

    def curve(delta_phi):
        d = _checked_delta_phi(delta_phi)
        x = d * half_inv
        wx = w(x)
        return scale * (math.exp(-x * x)
                        - damping * (math.cos(d) * wx.real - math.sin(d) * wx.imag))
    return curve


def phi_z_thin(delta_phi: float) -> float:
    """Thin-crystal (collinear) limit: Phi_z / l = sinc(delta_phi)
    = sin(delta_phi)/delta_phi, with sinc(0) = 1, at a float ``delta_phi``.
    (Unlike numpy.sinc there is no factor of pi in the argument.)
    """
    if abs(delta_phi) < 1e-4:
        return 1.0 - delta_phi * delta_phi / 6.0
    return math.sin(delta_phi) / delta_phi


def phi_z_thick(xi: float) -> float:
    """Walk-off-dominated value at zero phase mismatch,

        Phi_z / l = (sqrt(pi) / (2 Xi)) erf(Xi).

    This is the exact delta_phi = 0 value for any Xi > 0; it is the
    full story only in the large-Xi regime where the crystal length
    ceases to matter.
    """
    if not xi > 0:
        raise ValidationError("Xi must be > 0 (use phi_z for the Xi=0 limit)")
    return math.sqrt(math.pi) / (2.0 * xi) * math.erf(xi)


def longitudinal_k(geom: OverlapGeometry, delta_k_y: float, delta_k_z: float) -> float:
    """Effective longitudinal mismatch K entering Phi_z.

    K = delta_k_z - delta_k_y * D / (2C).  With perfect transverse phase
    matching (delta_k_y = 0), K reduces to delta_k_z.
    """
    return delta_k_z - delta_k_y * geom.D / (2.0 * geom.C)


def overlap_phi(
    geom: OverlapGeometry,
    delta_k_y: float,
    delta_k_z: float,
    crystal_length_l: float,
) -> float:
    """Full three-mode overlap integral (m^3) at one wave-vector mismatch,

        Phi = pi/sqrt(A C) * exp(-delta_k_y^2/(4C)) * l * Phi_z/l ,

    real-valued because the z-interval is symmetric.  delta_k_x = 0 by
    construction (all beams lie in the y-z plane).  All arguments are
    floats; :func:`~spdcgauss.rates.total_rate` evaluates Phi over its
    spectrum at delta_k_y = 0 through :func:`phi_z_grid`.
    """
    if not crystal_length_l > 0:
        raise ValidationError("crystal length must be > 0")
    K = longitudinal_k(geom, delta_k_y, delta_k_z)
    dphi = K * crystal_length_l / 2.0
    transverse = math.pi / math.sqrt(geom.A * geom.C) \
        * math.exp(-delta_k_y ** 2 / (4.0 * geom.C))
    return transverse * crystal_length_l * phi_z(geom.Xi, dphi)


def spectral_integral_S(xi: float) -> float:
    """Spectral integral S(Xi) = int |Phi_z/l|^2 d(delta_phi) over the
    whole real line.

    Phi_z/l is half the Fourier transform of the even weight
    exp(-Xi^2 u^2) on [-1, 1], so by Plancherel's identity

        S(Xi) = pi int_0^1 exp(-2 Xi^2 u^2) du
              = pi^{3/2} erf(sqrt2 Xi) / (2 sqrt2 Xi),

    with S = pi (the thin-crystal anchor) for Xi < 1e-8.  S decreases
    monotonically with Xi.  ``xi`` is a scalar; plain float math, no numpy.
    """
    if not 0 <= xi < math.inf:
        raise ValidationError("Xi must be finite and >= 0")
    if xi < 1e-8:
        return math.pi
    r2 = math.sqrt(2.0)
    return math.pi ** 1.5 * math.erf(r2 * xi) / (2.0 * r2 * xi)


def waist_scaling(waist_wp: float, waist_ws: float, waist_wi: float) -> float:
    """Thin-crystal waist dependence of the total rate (relative units),

        1 / (Wp^2 Ws^2 Wi^2 A^2),  A = 1/Wp^2 + 1/Ws^2 + 1/Wi^2

    with A the overlap coefficient of :func:`geometry_coefficients`;
    symmetric under any permutation of the three waists, which are
    scalars.  A product or quotient beyond the float range raises an
    ``ArithmeticError``.
    """
    if min(waist_wp, waist_ws, waist_wi) <= 0:
        raise ValidationError("waists must be > 0")
    wp2, ws2, wi2 = waist_wp * waist_wp, waist_ws * waist_ws, waist_wi * waist_wi
    s = 1.0 / wp2 + 1.0 / ws2 + 1.0 / wi2
    rate = 1.0 / (wp2 * ws2 * wi2 * s * s)
    if rate == 0.0:  # only an intermediate that overflowed to inf gives 0
        raise OverflowError(f"waist_scaling({waist_wp!r}, {waist_ws!r}, {waist_wi!r}) "
                            "leaves the float range")
    return rate


def optimal_gamma() -> float:
    """Pump-to-collection waist ratio maximizing the pair rate, 1/sqrt(2):
    d/dgamma (1/gamma + 2 gamma)^-2 = 2 (1/gamma^2 - 2) (1/gamma + 2 gamma)^-3
    vanishes only at gamma^2 = 1/2."""
    return 1.0 / math.sqrt(2.0)


def uniform_grid(lo: float, hi: float, points: int) -> list:
    """``points`` >= 2 evenly spaced floats from ``lo`` to ``hi``, bit-equal
    to ``numpy.linspace(lo, hi, points)``: ``i*step + lo`` with the last
    point ``hi``.  A range whose spacing leaves the float range raises
    ``OverflowError``, where numpy would overflow under ``np.errstate``."""
    div = points - 1
    delta = hi - lo
    step = delta / div
    if not math.isfinite(div * step + lo):  # numpy computes this point, then sets it to hi
        raise OverflowError(f"the grid spacing of [{lo!r}, {hi!r}] leaves the float range")
    if step == 0.0:  # a spacing below the smallest subnormal: numpy divides first
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def gamma_sweep(gamma_min: float, gamma_max: float, points: int) -> list:
    """Uniform sweep of the relative rate versus gamma = Wp/W, normalized
    to a maximum of 1: :func:`waist_scaling` at Wp = gamma W, Ws = Wi = W
    (the W^-2 scale divides out).  Returns a list of ``points``
    ``[gamma, relative_rate]`` rows on :func:`uniform_grid`."""
    if not (0 < gamma_min < gamma_max < math.inf):
        raise ValidationError("require 0 < gamma_min < gamma_max, both finite")
    if points < 2:
        raise ValidationError("points must be >= 2")
    gammas = uniform_grid(gamma_min, gamma_max, points)
    rates = [waist_scaling(g, 1.0, 1.0) for g in gammas]
    top = max(rates)
    return [[g, r / top] for g, r in zip(gammas, rates)]
