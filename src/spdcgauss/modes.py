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

At a float dphi, Phi_z is phi_z_curve of :mod:`spdcgauss.curves`,
which holds the model's dimensionless curves in float math.  The array
functions are overlap_phi, over an ndarray of dk_z, and phi_z_grid, which
it calls over dphi: an entire function integrated over [0, 1] on a composite
Gauss-Legendre rule whose panels follow the largest phase and the Gaussian
decay.  numpy loads inside phi_z_grid only, and never numpy.polynomial;
everything else here is plain float math.  OverlapGeometry is a named tuple
that checks its fields when built, by ``_replace`` too.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .config import GaussianMode, Role
# nothing here calls spectral_integral_S: perfbench/tracer.py's TARGETS looks it up here
from .curves import _checked_delta_phi, spectral_integral_S
from .errors import NegativeH, ValidationError

__all__ = [
    "OverlapGeometry",
    "normalization_alpha",
    "geometry_coefficients",
    "phi_z_grid",
    "longitudinal_k",
    "overlap_phi",
]

# magnitude below which a negative H = F - D^2/(4C) is treated as
# floating-point cancellation and clamped to zero (1/m^2)
H_CLAMP = 1e-18

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


class OverlapGeometry(namedtuple("OverlapGeometry", "A C D F H Xi")):
    """Quadratic-form coefficients of the three-mode overlap (1/m^2 for
    A, C, D, F, H), plus the derived dimensionless walk-off parameter
    Xi = sqrt(H) l/2."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.A >= self.C > 0):
            raise ValidationError("require A >= C > 0")
        if self.F < 0 or self.H < 0 or self.Xi < 0:
            raise ValidationError("F, H and Xi must be >= 0")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def normalization_alpha(waist_w: float) -> float:
    """Envelope normalization alpha = sqrt(2/(pi W^2)) such that
    alpha^2 * integral |U|^2 dx dy = 1."""
    if not 0 < waist_w < math.inf:
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
    :class:`NegativeH`.  Waists whose squares or their reciprocals leave
    the float range, large or small, raise ``OverflowError``, as does an Xi beyond it.
    """
    if pump.role is not Role.PUMP or signal.role is not Role.SIGNAL \
            or idler.role is not Role.IDLER:
        raise ValidationError("modes must be passed as (pump, signal, idler)")
    if not crystal_length_l > 0:
        raise ValidationError("crystal length must be > 0")
    ths, thi = signal.theta, idler.theta
    try:
        wp2 = pump.waist_w ** 2
        ws2 = signal.waist_w ** 2
        wi2 = idler.waist_w ** 2
        A = 1.0 / wp2 + 1.0 / ws2 + 1.0 / wi2
        C = 1.0 / wp2 + math.cos(ths) ** 2 / ws2 + math.cos(thi) ** 2 / wi2
        D = math.sin(2.0 * ths) / ws2 - math.sin(2.0 * thi) / wi2
        F = math.sin(ths) ** 2 / ws2 + math.sin(thi) ** 2 / wi2
        H = F - D * D / (4.0 * C)
    except (OverflowError, ZeroDivisionError):  # a square overflowed, or underflowed to 0
        A = H = math.inf
    if not (math.isfinite(A) and math.isfinite(H)):  # a 1/W^2 or D^2 overflowed
        raise OverflowError(f"the overlap coefficients of waists {pump.waist_w!r}, "
                            f"{signal.waist_w!r}, {idler.waist_w!r} m leave the float range")
    if H < 0.0:
        if H < -H_CLAMP:
            raise NegativeH(f"H = {H:.3e} 1/m^2; inconsistent geometry inputs")
        H = 0.0
    Xi = math.sqrt(H) * crystal_length_l / 2.0
    if not Xi < math.inf:
        raise OverflowError(f"Xi = sqrt(H) l/2 of H = {H!r} 1/m^2 and "
                            f"l = {crystal_length_l!r} m leaves the float range")
    return OverlapGeometry(A=A, C=C, D=D, F=F, H=H, Xi=Xi)


def phi_z_grid(xi: float, delta_phi):
    """:func:`~spdcgauss.curves.phi_z_curve` over an array of ``delta_phi``,
    as a 1-D ndarray: a 32-point Gauss-Legendre rule tiled over equal
    panels.  For Xi > 8 the range is cut at u = U = 8/Xi, where the weight
    has fallen below 1e-27 (otherwise U = 1); the
    ``1 + ceil(max(|delta_phi|, 2 Xi) U / 32)`` panels on [0, U], with the
    array's largest |delta_phi|, keep each panel within 32 radians of phase
    and of Gaussian decay, where the rule's error falls off faster than
    exponentially.
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


def longitudinal_k(geom: OverlapGeometry, delta_k_y: float, delta_k_z):
    """Effective longitudinal mismatch K entering Phi_z (a float or an ndarray).

    K = delta_k_z - delta_k_y * D / (2C).  With perfect transverse phase
    matching (delta_k_y = 0), K reduces to delta_k_z.
    """
    return delta_k_z - delta_k_y * geom.D / (2.0 * geom.C)


def overlap_phi(
    geom: OverlapGeometry,
    delta_k_y: float,
    delta_k_z,
    crystal_length_l: float,
):
    """Three-mode overlap integral (m^3), an ndarray over an ndarray of delta_k_z,

        Phi = pi/sqrt(A C) * exp(-delta_k_y^2/(4C)) * l * Phi_z/l ,

    real-valued because the z-interval is symmetric.  delta_k_x = 0 by
    construction (all beams lie in the y-z plane).  Phi_z/l is
    :func:`phi_z_grid`; :func:`~spdcgauss.rates.total_rate` evaluates Phi
    over its spectrum at delta_k_y = 0.
    """
    if not crystal_length_l > 0:
        raise ValidationError("crystal length must be > 0")
    if not geom.A * geom.C > 0.0:  # the product underflowed: waists beyond ~4e80 m
        raise OverflowError(f"A*C = {geom.A!r} * {geom.C!r} 1/m^4 leaves the float range")
    K = longitudinal_k(geom, delta_k_y, delta_k_z)
    transverse = math.pi / math.sqrt(geom.A * geom.C) \
        * math.exp(-delta_k_y ** 2 / (4.0 * geom.C))
    return transverse * crystal_length_l * phi_z_grid(geom.Xi, K * crystal_length_l / 2.0)
