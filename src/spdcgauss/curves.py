"""The model's dimensionless curves, in float math.

These are the closed forms behind the characteristic figures: the
longitudinal overlap

    Phi_z / l = int_0^1 exp(-Xi^2 u^2) cos(delta_phi u) du

at a float delta_phi (phi_z_curve, through the Faddeeva function with a
power series in Xi^2 where Xi is small), the spectral integral
S(Xi) = int |Phi_z/l|^2 d(delta_phi) by Plancherel's identity, and the
thin-crystal waist-ratio curve with its optimum 1/sqrt(2).  Xi = sqrt(H) l/2
is the walk-off parameter and delta_phi = K l/2 the longitudinal phase
mismatch of :mod:`spdcgauss.modes`, which holds the geometry and the ndarray
overlap kernel.

This module imports only ``math`` and :mod:`spdcgauss.errors`, so the CLI
commands that need no source (``figures``, ``spectrum``, ``sweep-xi`` and
``sweep-gamma``) load no geometry record.
"""

from __future__ import annotations

import math

from .errors import ValidationError

__all__ = [
    "phi_z_curve",
    "spectral_integral_S",
    "waist_scaling",
    "optimal_gamma",
    "uniform_grid",
    "gamma_sweep",
]

# largest |delta_phi| phi_z_curve and modes.phi_z_grid accept: phi_z_grid's rule takes
# about |delta_phi| nodes, so one overlap value costs at most ~1e5 cosines, one cos-block
# row of 0.8 MB
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


def _checked_delta_phi(delta_phi) -> float:
    d = abs(delta_phi)
    if not d <= DELTA_PHI_MAX:
        raise ValidationError(
            f"delta_phi must be finite with |delta_phi| <= {DELTA_PHI_MAX:g}")
    return d


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
    """Dimensionless longitudinal overlap

        Phi_z / l = int_0^1 exp(-Xi^2 u^2) cos(delta_phi u) du

    at fixed Xi as a function of a float ``delta_phi`` with
    ``|delta_phi| <= DELTA_PHI_MAX``, in float math; the constants of Xi are
    computed once per curve.  Equals sinc(delta_phi) at Xi = 0 and
    (sqrt(pi)/(2 Xi)) erf(Xi) at delta_phi = 0.
    :func:`spdcgauss.modes.phi_z_grid` evaluates an array of ``delta_phi``.

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


def spectral_integral_S(xi: float) -> float:
    """Spectral integral S(Xi) = int |Phi_z/l|^2 d(delta_phi) over the
    whole real line.

    Phi_z/l is half the Fourier transform of the even weight
    exp(-Xi^2 u^2) on [-1, 1], so by Plancherel's identity

        S(Xi) = pi int_0^1 exp(-2 Xi^2 u^2) du
              = pi^{3/2} erf(sqrt2 Xi) / (2 sqrt2 Xi),

    with S = pi (the thin-crystal anchor) for Xi < 1e-8.  S decreases
    monotonically with Xi, and is > 0 at every finite Xi: at the largest,
    1.1e-308, a subnormal float.  ``xi`` is a scalar; plain float math, no numpy.
    """
    if not 0 <= xi < math.inf:
        raise ValidationError("Xi must be finite and >= 0")
    if xi < 1e-8:
        return math.pi
    h = 0.5 * math.sqrt(2.0) * xi  # Xi/sqrt2, finite where Xi is; x2 and x4 scale exactly
    return math.pi ** 1.5 * math.erf(2.0 * h) / 4.0 / h


def waist_scaling(waist_wp: float, waist_ws: float, waist_wi: float) -> float:
    """Thin-crystal waist dependence of the total rate (relative units),

        1 / (Wp^2 Ws^2 Wi^2 A^2),  A = 1/Wp^2 + 1/Ws^2 + 1/Wi^2

    with A the overlap coefficient of
    :func:`~spdcgauss.modes.geometry_coefficients`.  The waists are scalars,
    each finite and > 0, and are evaluated largest first, so the float
    result, or the error, is the same under any permutation of them.  Waists
    whose squares, products or quotients leave the float range, large or
    small, raise ``OverflowError``.
    """
    waists = (waist_wp, waist_ws, waist_wi)
    if not all(0 < w < math.inf for w in waists):
        raise ValidationError(f"waists {waists!r} must be finite and > 0")
    a2, b2, c2 = (w * w for w in sorted(waists, reverse=True))
    try:
        s = 1.0 / a2 + 1.0 / b2 + 1.0 / c2
        rate = 1.0 / (a2 * b2 * c2 * s * s)
    except ZeroDivisionError:  # a square or the product underflowed to 0
        rate = 0.0
    if not 0.0 < rate < math.inf:  # 0, inf or nan: an intermediate left the float range
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
