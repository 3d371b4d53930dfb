"""Source-configuration files: JSON with explicit unit suffixes in the
field names (``waist_um``, ``wavelength_nm``, ``power_mw``, ``length_mm``,
``angle_deg``), converted to SI on load.

Loading resolves everything the rate model needs: the crystal is looked
up in the material database, refractive indices are assigned (pump
extraordinary at the cut angle, as phase matching in a negative uniaxial
crystal requires; daughters ordinary/extraordinary per the configured
assignment, the extraordinary one evaluated at the cut angle), and the
external collection angle is converted per the angle convention.

The source records live here, beside the loader that builds them: Role,
GaussianMode, AngleConvention, PolarizationAssignment and SourceConfig.
The named tuples check their fields when built, by ``_replace`` too.  This
module imports only :mod:`~spdcgauss.materials`, :mod:`~spdcgauss.errors` and
:mod:`~spdcgauss.constants`: loading a source compiles none of the geometry,
curve or rate code.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import sys
from collections import namedtuple
from importlib import resources

from . import materials
from .constants import C_LIGHT
from .errors import ParseError, UnknownMaterial, ValidationError

__all__ = ["Role", "GaussianMode", "AngleConvention", "PolarizationAssignment", "SourceConfig",
           "load_config", "config_from_dict", "apply_overrides", "builtin_config_path"]


class Role(str, enum.Enum):
    PUMP = "pump"
    SIGNAL = "signal"
    IDLER = "idler"


class GaussianMode(namedtuple("GaussianMode", "waist_w lambda_vac theta n role")):
    """One paraxial beam: waist (m), vacuum wavelength (m), internal tilt
    (rad), refractive index seen by the mode, and its :class:`Role`.

    ``theta`` is the tilt of the mode axis relative to the pump axis in
    crystal coordinates; the signal tilts one way, the idler the other
    (the sign convention is handled inside the geometry assembly, both
    angles are given as magnitudes here).  The pump defines the z-axis
    and must have theta = 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks its result

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * C_LIGHT / self.lambda_vac


class AngleConvention(str, enum.Enum):
    """How the external collection angle maps to the in-crystal tilt.

    ``INTERNAL_PHYSICS`` applies Snell refraction at the exit face
    (physically correct).  ``PAPER_EXTERNAL_AS_INTERNAL`` inserts the
    external angle directly into the crystal-frame geometry; this is the
    convention under which the published BBO walk-off figure of 0.933
    is reproduced.
    """

    INTERNAL_PHYSICS = "internal_physics"
    PAPER_EXTERNAL_AS_INTERNAL = "paper_external_as_internal"


class PolarizationAssignment(str, enum.Enum):
    SIGNAL_ORDINARY = "signal_ordinary"
    SIGNAL_EXTRAORDINARY = "signal_extraordinary"


class SourceConfig(namedtuple("SourceConfig", (
        "pump_power_p pump signal idler crystal external_collection_angle angle_convention "
        "collection_solid_angle_sr pair_to_singles_ratio decay_path_multiplicity "
        "reference_values"), defaults=(None, None, 2, None))):
    """Full description of one photon-pair source, in SI units (W, rad, sr);
    ``reference_values`` is a dict, a new one for each config built without.

    The three ``GaussianMode`` entries arrive fully resolved: internal
    tilt angles per the chosen angle convention and refractive indices
    already assigned (pump extraordinary at the cut angle; daughters
    ordinary / extraordinary per the config's polarization assignment).
    Degenerate operation is the supported design point: both daughter
    wavelengths must equal twice the pump wavelength.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if len(args) < len(cls._fields):  # a dict of its own for each config
            kwargs.setdefault("reference_values", {})
        self = super().__new__(cls, *args, **kwargs)
        paths = self.decay_path_multiplicity
        if isinstance(paths, bool) or not isinstance(paths, int):
            raise ValidationError(f"collection.decay_paths must be an int, not {paths!r}")
        if paths < 1:
            raise ValidationError("collection.decay_paths must be >= 1")
        if not 0 < self.pump_power_p < math.inf:
            raise ValidationError("pump_power must be finite and > 0")
        if self.collection_solid_angle_sr is not None \
                and not 0 < self.collection_solid_angle_sr <= 4.0 * math.pi:
            raise ValidationError("collection.solid_angle_sr must lie in (0, 4 pi]")
        if self.pair_to_singles_ratio is not None \
                and not 0 < self.pair_to_singles_ratio <= 1:
            raise ValidationError("collection.pair_to_singles_ratio must lie in (0, 1]")
        for key, value in (self.reference_values or {}).items():
            # a relative deviation divides by it: 0, a negative or a subnormal value scales none
            if not sys.float_info.min <= value < math.inf:
                raise ValidationError(f"reference.{key} must be finite and at least "
                                      f"the smallest normal float, {sys.float_info.min!r}")
        lam_d = 2.0 * self.pump.lambda_vac
        for m in (self.signal, self.idler):
            if abs(m.lambda_vac - lam_d) > 1e-9 * lam_d:
                raise ValidationError(
                    f"{m.role.value}.wavelength: degenerate operation requires "
                    f"2 x pump wavelength ({lam_d * 1e9:.2f} nm)"
                )
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks its result

    @property
    def d_eff(self) -> float:
        return materials.effective_nonlinearity_bbo(self.crystal)


def builtin_config_path(name: str = "bbo_branciard") -> str:
    """Filesystem path of a configuration shipped with the package."""
    return str(resources.files(__package__).joinpath(f"data/{name}.json"))


def _get(d: dict, read: set, path: str, typ, required=True, default=None):
    read.add(path)
    cur = d
    # a path is a field or section.field; a reference key may itself hold a dot
    parts = path.split(".", 1)
    for p in parts[:-1]:
        cur = cur.get(p, {}) if isinstance(cur, dict) else {}
    leaf = cur.get(parts[-1]) if isinstance(cur, dict) else None
    if leaf is None:
        if required:
            raise ValidationError(f"missing required field {path!r}")
        return default
    return materials.json_field(leaf, path, typ)


def _get_enum(get, path: str, cls, default=None):
    """Enum member named by the string ``get`` reads at ``path``; a missing
    field takes ``default``, and is an error when there is none."""
    value = get(path, str, required=False)
    if value is None and default is not None:
        return default
    try:
        return cls(value)
    except ValueError:  # also for a missing field without a default
        what = f"missing required field {path!r}" if value is None else f"{path} {value!r}"
        allowed = ", ".join(repr(c.value) for c in cls)
        raise ValidationError(f"{what}: allowed values are {allowed}") from None


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``KEY=VALUE`` overrides onto the raw config dict; a key is a
    config path, read as :func:`_get` reads it.  Values are parsed as JSON
    scalars, falling back to strings where the decoder refuses them (malformed,
    nested too deep, or an integer of too many digits)."""
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
            parsed = value
        cur = raw
        parts = key.strip().split(".", 1)
        for p in parts[:-1]:
            cur = cur.setdefault(p, {})
            if not isinstance(cur, dict):
                raise ValidationError(f"override {key!r}: {p!r} is not an object")
        cur[parts[-1]] = parsed
    return raw


def config_from_dict(raw: dict, material_db: dict, read: set | None = None) -> SourceConfig:
    """Resolve a raw config dict into a SourceConfig; ``read`` gets each path looked up."""
    get = functools.partial(_get, raw, set() if read is None else read)
    lam_p = get("pump.wavelength_nm", float) * 1e-9
    power = get("pump.power_mw", float) * 1e-3
    waist_p = get("pump.waist_um", float) * 1e-6
    waist_s = get("signal.waist_um", float) * 1e-6
    waist_i = get("idler.waist_um", float) * 1e-6
    lam_d = 2.0 * lam_p
    lam_s = get("signal.wavelength_nm", float, required=False)
    lam_i = get("idler.wavelength_nm", float, required=False)
    lam_s = lam_s * 1e-9 if lam_s is not None else lam_d
    lam_i = lam_i * 1e-9 if lam_i is not None else lam_d

    mat_name = get("crystal.material", str)
    if mat_name not in material_db:
        raise UnknownMaterial(
            f"crystal.material {mat_name!r} not in database "
            f"(known: {', '.join(sorted(material_db))})"
        )
    crystal = materials.CrystalSpec.from_material(
        material_db[mat_name],
        length_l=get("crystal.length_mm", float) * 1e-3,
        theta_c=math.radians(get("crystal.theta_c_deg", float)),
        phi_c=math.radians(get("crystal.phi_c_deg", float)),
    )

    conv = _get_enum(get, "angle_convention", AngleConvention,
                     default=AngleConvention.INTERNAL_PHYSICS)
    pol = _get_enum(get, "polarization_assignment", PolarizationAssignment)

    # pump is extraordinary-polarized at the cut angle; the extraordinary
    # daughter's small tilt off the cut angle is neglected in its index
    n_p = materials.index_extraordinary(crystal, lam_p, crystal.theta_c)
    n_ord = materials.index_ordinary(crystal, lam_s)
    n_ext = materials.index_extraordinary(crystal, lam_i, crystal.theta_c)
    if pol is PolarizationAssignment.SIGNAL_ORDINARY:
        n_s, n_i = n_ord, n_ext
    else:
        n_s, n_i = n_ext, n_ord

    angle_deg = get("collection.external_angle_deg", float)
    if not 0 <= angle_deg < 90:  # a tilt off the pump axis, under either convention
        raise ValidationError("collection.external_angle_deg must lie in [0, 90)")
    theta_ext = math.radians(angle_deg)
    if conv is AngleConvention.INTERNAL_PHYSICS:
        th_s = materials.internal_angle(theta_ext, n_s)
        th_i = materials.internal_angle(theta_ext, n_i)
    else:
        th_s = th_i = theta_ext

    pump = GaussianMode(waist_p, lam_p, 0.0, n_p, Role.PUMP)
    signal = GaussianMode(waist_s, lam_s, th_s, n_s, Role.SIGNAL)
    idler = GaussianMode(waist_i, lam_i, th_i, n_i, Role.IDLER)

    decay_paths = get("collection.decay_paths", int, required=False, default=2)

    reference = {key: get(f"reference.{key}", float)
                 for key in get("reference", dict, required=False, default={})}
    return SourceConfig(
        pump_power_p=power,
        pump=pump,
        signal=signal,
        idler=idler,
        crystal=crystal,
        external_collection_angle=theta_ext,
        angle_convention=conv,
        collection_solid_angle_sr=get("collection.solid_angle_sr", float, required=False),
        pair_to_singles_ratio=get("collection.pair_to_singles_ratio", float, required=False),
        decay_path_multiplicity=decay_paths,
        reference_values=reference,
    )


def load_config(path: str, material_db_path: str | None = None,
                overrides=None) -> SourceConfig:
    """Load, validate and resolve a source-configuration file; an override
    key must name a field the config reads, or an object holding one."""
    raw = materials.read_json(path, "config")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    raw = apply_overrides(raw, overrides)
    read = set()
    cfg = config_from_dict(raw, materials.load_material_db(material_db_path), read)
    for key in (item.partition("=")[0].strip() for item in overrides or []):
        if key not in read and not any(field.startswith(key + ".") for field in read):
            raise ValidationError(f"override {key!r}: no config field has this path")
    return cfg
