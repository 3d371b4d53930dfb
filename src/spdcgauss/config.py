"""Source-configuration files: JSON with explicit unit suffixes in the
field names (``waist_um``, ``wavelength_nm``, ``power_mw``, ``length_mm``,
``angle_deg``), converted to SI on load.

Loading resolves everything the rate model needs: the crystal is looked
up in the material database, refractive indices are assigned (pump
extraordinary at the cut angle, as phase matching in a negative uniaxial
crystal requires; daughters ordinary/extraordinary per the configured
assignment, the extraordinary one evaluated at the cut angle), and the
external collection angle is converted per the angle convention.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from importlib import resources

from . import materials
from .errors import ParseError, UnknownMaterial, ValidationError
from .modes import GaussianMode, Role
from .rates import AngleConvention, PolarizationAssignment, SourceConfig

__all__ = ["load_config", "config_from_dict", "apply_overrides", "builtin_config_path"]


def builtin_config_path(name: str = "bbo_branciard") -> str:
    """Filesystem path of a configuration shipped with the package."""
    return str(resources.files("spdcgauss").joinpath(f"data/{name}.json"))


def _get(d: dict, read: set, path: str, typ, required=True, default=None):
    read.add(path)
    cur = d
    parts = path.split(".")
    for p in parts[:-1]:
        cur = cur.get(p, {}) if isinstance(cur, dict) else {}
    leaf = cur.get(parts[-1]) if isinstance(cur, dict) else None
    if leaf is None:
        if required:
            raise ValidationError(f"missing required field {path!r}")
        return default
    if typ is float and isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
        if not abs(leaf) <= sys.float_info.max:  # NaN, +-inf, ints beyond float
            raise ValidationError(f"field {path!r} must be a finite number")
        return float(leaf)
    if typ is int and isinstance(leaf, int) and not isinstance(leaf, bool):
        return leaf
    if typ is str and isinstance(leaf, str):
        return leaf
    if typ is dict and isinstance(leaf, dict):
        return leaf
    raise ParseError(f"field {path!r}: expected {typ.__name__}, got {type(leaf).__name__}")


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
    """Apply ``KEY=VALUE`` overrides (dotted key paths) onto the raw
    config dict.  Values are parsed as JSON scalars, falling back to
    strings."""
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        cur = raw
        parts = key.strip().split(".")
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
    if decay_paths < 1:
        raise ValidationError("collection.decay_paths must be >= 1")

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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    raw = apply_overrides(raw, overrides)
    read = set()
    cfg = config_from_dict(raw, materials.load_material_db(material_db_path), read)
    for key in (item.partition("=")[0].strip() for item in overrides or []):
        if key not in read and not any(field.startswith(key + ".") for field in read):
            raise ValidationError(f"override {key!r}: no config field has this path")
    return cfg
