"""Uniaxial crystal optics: Sellmeier dispersion, the extraordinary index
ellipse, effective nonlinearity, refraction at the entrance face, and the
longitudinal wave-vector mismatch.

Dispersion coefficients are not hard-coded; they ship in a versioned JSON
database (``data/materials.json``) with the literature source recorded
next to the numbers.  Evaluation outside a model's validity window is an
error, never an extrapolation.  The records are named tuples; SellmeierSet
and CrystalSpec check their fields when built, by ``_replace`` too.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from importlib import resources

from .constants import C_LIGHT
from .errors import DegenerateDispersion, OutOfRange, ParseError, ValidationError

__all__ = [
    "SellmeierSet",
    "MaterialRecord",
    "CrystalSpec",
    "load_material_db",
    "index_ordinary",
    "index_extraordinary",
    "effective_nonlinearity_bbo",
    "internal_angle",
    "delta_k_z",
    "dispersion_factor",
]


# smallest |n_i cos(theta_i) - n_s cos(theta_s)| dispersion_factor accepts
DISPERSION_EPSILON = 1e-6


class SellmeierSet(namedtuple("SellmeierSet", "coefficients valid_range_m")):
    """One polarization branch of n^2(lambda) in the pole-quadratic form

        n^2 = c0 + c1/(lam^2 - c2) - c3 lam^2,   lam in micrometres,

    with ``coefficients`` = (c0, c1, c2, c3); ``valid_range_m`` is the
    (min, max) vacuum wavelength in metres.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lo, hi = self.valid_range_m
        if not 0 < lo < hi:
            raise ValidationError("valid_range must satisfy 0 < min < max")
        # n^2 > 1 across the window, sampled
        for i in range(33):
            lam = lo + (hi - lo) * i / 32
            if not self.n_sq(lam) > 1.0:
                raise ValidationError(f"n^2(lambda) <= 1 at {lam * 1e9:.1f} nm")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks its result

    def n_sq(self, lambda_vac_m: float) -> float:
        lo, hi = self.valid_range_m
        if not lo <= lambda_vac_m <= hi:
            raise OutOfRange(
                f"wavelength {lambda_vac_m * 1e9:.1f} nm outside validity window "
                f"[{lo * 1e9:.0f}, {hi * 1e9:.0f}] nm"
            )
        c0, c1, c2, c3 = self.coefficients
        lam_um = lambda_vac_m * 1e6
        lam2 = lam_um * lam_um
        return c0 + c1 / (lam2 - c2) - c3 * lam2

    def index(self, lambda_vac_m: float) -> float:
        return math.sqrt(self.n_sq(lambda_vac_m))


class MaterialRecord(namedtuple("MaterialRecord", "name ordinary extraordinary d22_m_per_v "
                                                  "source_citation")):
    """Material constants as shipped in the database (no geometry): two
    :class:`SellmeierSet` branches and d22 in m/V."""

    __slots__ = ()


class CrystalSpec(namedtuple("CrystalSpec", "name ordinary extraordinary d22_m_per_v "
                                            "length_l theta_c phi_c")):
    """A cut and sized uniaxial crystal.

    theta_c is the angle between the pump wave vector and the optic
    axis, phi_c the azimuthal angle (radians); length_l the thickness
    along the pump direction (m).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.length_l < math.inf:
            raise ValidationError("crystal length_l must be finite and > 0")
        if not math.isfinite(self.d22_m_per_v):
            raise ValidationError("crystal d22 must be finite")
        if not 0 <= self.theta_c <= math.pi / 2:
            raise ValidationError("theta_c must lie in [0, pi/2]")
        if not 0 <= self.phi_c < 2 * math.pi:
            raise ValidationError("phi_c must lie in [0, 2*pi)")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_material(cls, mat: MaterialRecord, length_l, theta_c, phi_c):
        return cls(mat.name, mat.ordinary, mat.extraordinary,
                   mat.d22_m_per_v, length_l, theta_c, phi_c)


def _number(value) -> float:
    """``float(value)``, refusing a JSON ``true``/``false`` as float() would not."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _sellmeier_from_json(obj, where):
    try:
        form = obj["form"]
        c0, c1, c2, c3 = (_number(c) for c in obj["coefficients"])
        lo_um, hi_um = (_number(x) for x in obj["range_um"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed Sellmeier entry at {where}: {exc}") from exc
    if form != "pole_quadratic":
        raise ParseError(f"{where}: unknown dispersion form {form!r}")
    return SellmeierSet((c0, c1, c2, c3), (lo_um * 1e-6, hi_um * 1e-6))


def load_material_db(path=None) -> dict:
    """Load the material database, returning {name: MaterialRecord}.

    ``path=None`` loads the database shipped with the package.  Each record
    names its effective-nonlinearity form in ``d_eff_form``; the one form the
    model evaluates is ``"3m_d22"``, d22 cos^2(theta_c) cos(3 phi_c).  A
    document of another shape, a record whose name is not a string or repeats
    an earlier one, and a d22 that is not a number raise ``ParseError``.
    """
    if path is None:
        text = resources.files("spdcgauss").joinpath("data/materials.json") \
            .read_text(encoding="utf-8")
        where = "<builtin materials.json>"
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read material database {path}: {exc}") from exc
        where = str(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where} line {exc.lineno}: {exc.msg}") from exc
    records = doc.get("materials", []) if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise ParseError(f"{where}: expected an object whose \"materials\" is a list")
    out, index = {}, {}
    for i, m in enumerate(records):
        label = f"{where}#materials[{i}]"
        if not isinstance(m, dict):
            raise ParseError(f"{label}: expected an object, got {type(m).__name__}")
        try:
            name = m["name"]
            d_eff_form = m["d_eff_form"]
            ordinary = _sellmeier_from_json(m["ordinary"], label + ".ordinary")
            extraordinary = _sellmeier_from_json(m["extraordinary"], label + ".extraordinary")
            d22 = m["d22_m_per_V"]
        except KeyError as exc:
            raise ParseError(f"{label}: missing field {exc}") from exc
        if not isinstance(name, str):
            raise ParseError(f"{label}: name must be a string, got {type(name).__name__}")
        if name in index:
            raise ParseError(f"{label}: material {name!r} repeats "
                             f"{where}#materials[{index[name]}]")
        try:
            d22 = _number(d22)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{label} {name!r}: d22_m_per_V must be a number: {exc}") from exc
        if d_eff_form != "3m_d22":  # the one form effective_nonlinearity_bbo evaluates
            raise ParseError(f"{label} {name!r}: unknown d_eff form {d_eff_form!r}")
        out[name] = MaterialRecord(name, ordinary, extraordinary, d22,
                                   str(m.get("source_citation", "")))
        index[name] = i
    if not out:
        raise ParseError(f"{where}: no materials defined")
    return out


def index_ordinary(crystal: CrystalSpec, lambda_vac: float) -> float:
    """Ordinary refractive index n_o(lambda)."""
    return crystal.ordinary.index(lambda_vac)


def index_extraordinary(crystal: CrystalSpec, lambda_vac: float, theta: float) -> float:
    """Extraordinary index for propagation at angle ``theta`` to the optic
    axis, via the index ellipse

        1/n_e(theta)^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_ebar^2

    where n_ebar is the principal extraordinary index.  n_e(0) = n_o and
    n_e(pi/2) = n_ebar.
    """
    if not 0 <= theta <= math.pi / 2:
        raise ValidationError("theta must lie in [0, pi/2]")
    no2 = crystal.ordinary.n_sq(lambda_vac)
    ne2 = crystal.extraordinary.n_sq(lambda_vac)
    c, s = math.cos(theta), math.sin(theta)
    return 1.0 / math.sqrt(c * c / no2 + s * s / ne2)


def effective_nonlinearity_bbo(crystal: CrystalSpec) -> float:
    """Effective nonlinearity of the beta-BaB2O4 geometry class,

        d = d22 * cos^2(theta_c) * cos(3 phi_c)   [m/V, signed]

    Rates depend on d^2, so the sign is informational only.
    """
    return (crystal.d22_m_per_v
            * math.cos(crystal.theta_c) ** 2
            * math.cos(3.0 * crystal.phi_c))


def internal_angle(theta_external: float, n_inside: float) -> float:
    """Refraction at the exit face (surface normal to the pump):
    sin(theta_ext) = n_inside * sin(theta_int)."""
    if not 0 <= theta_external < math.pi / 2:
        raise ValidationError("theta_external must lie in [0, pi/2)")
    if n_inside < 1.0:
        raise ValidationError("n_inside must be >= 1")
    return math.asin(math.sin(theta_external) / n_inside)


def delta_k_z(n_s, n_i, n_p, omega_s, omega_p, theta_s, theta_i):
    """Longitudinal wave-vector mismatch, the idler taking w_i = w_p - w_s,

        delta_k_z = (n_s w_s cos(theta_s) + n_i w_i cos(theta_i) - n_p w_p) / c

    in 1/m; zero at perfect longitudinal phase matching.  Angles are
    internal; ``omega_s`` may be an ndarray.  Only delta_k_z^2 enters the
    emission model, so the overall sign convention is immaterial downstream.
    """
    return (n_s * omega_s * math.cos(theta_s)
            + n_i * (omega_p - omega_s) * math.cos(theta_i)
            - n_p * omega_p) / C_LIGHT


def dispersion_factor(n_s, n_i, theta_s, theta_i) -> float:
    """d(delta_k_z)/d(omega_s) = (n_i cos(theta_i) - n_s cos(theta_s)) / c.

    Sign is preserved (it only reflects the signal/idler labelling).
    Raises :class:`DegenerateDispersion` when the bracket is smaller than
    ``DISPERSION_EPSILON`` in index units: the linearized change of
    variables from frequency to longitudinal mismatch breaks down there
    (e.g. type-I degenerate collinear operation).
    """
    bracket = n_i * math.cos(theta_i) - n_s * math.cos(theta_s)
    if abs(bracket) < DISPERSION_EPSILON:
        raise DegenerateDispersion(
            f"|n_i cos(theta_i) - n_s cos(theta_s)| = {abs(bracket):.3e} "
            f"< {DISPERSION_EPSILON:.1e}"
        )
    return bracket / C_LIGHT
