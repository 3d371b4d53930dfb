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
import os
import sys
from collections import namedtuple

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


# the shipped data files, beside this module: a copy under another name reads its own
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
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
        for i in range(33):  # n^2 > 1 across the window, sampled
            self.n_sq(lo + (hi - lo) * i / 32)
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
        n_sq = c0 + c1 / (lam2 - c2) - c3 * lam2
        if not n_sq > 1.0:
            raise ValidationError(f"n^2(lambda) <= 1 at {lambda_vac_m * 1e9:.1f} nm")
        return n_sq

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


def read_json(path, what):
    """The JSON document at ``path``, read as UTF-8 (``what`` names the file).  This
    module owns the one reader of both input files and their one field rule,
    :func:`json_field`; :mod:`spdcgauss.config` uses both.  Unreadable or invalid
    JSON, and JSON the decoder refuses (nesting too deep for the recursion limit,
    an integer of more digits than ``int`` converts), raises ``ParseError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def json_field(value, where, typ):
    """``value`` as a ``typ`` field at ``where``: the one field-type rule of both
    input files.  A float field takes a JSON number, an int field an integer,
    neither a bool or a quoted number; str, list and dict go by type.  A wrong
    type raises ``ParseError``, a number beyond the float range (NaN, +-inf, a
    huge integer) ``ValidationError``."""
    if typ is float or typ is int:
        if isinstance(value, (int, typ)) and not isinstance(value, bool):
            if not abs(value) <= sys.float_info.max:
                raise ValidationError(f"field {where!r} must be a finite number")
            return typ(value)
    elif isinstance(value, typ):
        return value
    raise ParseError(f"field {where!r}: expected {typ.__name__}, got {type(value).__name__}")


def _field(obj, key, where, typ):
    """``obj[key]`` as a ``typ`` field; a missing one is a ``ParseError``."""
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return json_field(obj[key], f"{where}.{key}", typ)


def _floats(obj, key, where, count):
    """``obj[key]`` as a tuple of ``count`` float fields."""
    values, at = _field(obj, key, where, list), f"{where}.{key}"
    if len(values) != count:
        raise ParseError(f"field {at!r}: expected {count} numbers, got {len(values)}")
    return tuple(json_field(v, f"{at}[{k}]", float) for k, v in enumerate(values))


def _sellmeier_from_json(record, branch, label):
    obj, where = _field(record, branch, label, dict), f"{label}.{branch}"
    if _field(obj, "form", where, str) != "pole_quadratic":
        raise ParseError(f"{where}: unknown dispersion form {obj['form']!r}")
    lo_um, hi_um = _floats(obj, "range_um", where, 2)
    return SellmeierSet(_floats(obj, "coefficients", where, 4), (lo_um * 1e-6, hi_um * 1e-6))


def load_material_db(path=None) -> dict:
    """Load the material database, returning {name: MaterialRecord}.

    ``path=None`` loads the database shipped with the package.  Each record
    names its effective-nonlinearity form in ``d_eff_form``; the one form the
    model evaluates is ``"3m_d22"``, d22 cos^2(theta_c) cos(3 phi_c).  This module
    owns the reader and the field rule (:func:`read_json`, :func:`json_field`) that
    :mod:`spdcgauss.config` uses too.  A database of another shape, a missing or
    mistyped field or a repeated name raises ``ParseError``.
    """
    if path is None:
        path = os.path.join(DATA_DIR, "materials.json")
    doc = read_json(path, "material database")
    records = doc.get("materials", []) if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise ParseError(f"{path}: expected an object whose \"materials\" is a list")
    out, index = {}, {}
    for i, m in enumerate(records):
        label = f"{path}#materials[{i}]"
        m = json_field(m, label, dict)
        name = _field(m, "name", label, str)
        if name in index:
            raise ParseError(f"{label}: material {name!r} repeats {path}#materials[{index[name]}]")
        d_eff_form = _field(m, "d_eff_form", label, str)
        ordinary = _sellmeier_from_json(m, "ordinary", label)
        extraordinary = _sellmeier_from_json(m, "extraordinary", label)
        d22 = _field(m, "d22_m_per_V", label, float)
        if d_eff_form != "3m_d22":  # the one form effective_nonlinearity_bbo evaluates
            raise ParseError(f"{label} {name!r}: unknown d_eff form {d_eff_form!r}")
        citation = m.get("source_citation")  # null reads as missing, as in a source config
        citation = "" if citation is None else _field(m, "source_citation", label, str)
        out[name] = MaterialRecord(name, ordinary, extraordinary, d22, citation)
        index[name] = i
    if not out:
        raise ParseError(f"{path}: no materials defined")
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
    if not 1.0 <= n_inside < math.inf:
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
