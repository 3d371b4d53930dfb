"""Command-line interface.

Subcommands compute rates, spectra and sweep curves from a JSON source
configuration and emit CSV files (plus a JSON run manifest) suitable for
regenerating the model's characteristic figures and the worked BBO
comparison.  Output is deterministic: identical inputs and flags produce
byte-identical files.

Exit codes: 0 success, 2 configuration/validation, 3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import config as cfgmod
from . import modes, rates
from .errors import (
    ComputationError,
    ConfigurationError,
    OverwriteRefused,
    ParseError,
    UnknownMaterial,
    ValidationError,
)

__all__ = ["RunManifest", "main"]

FIG_OVERLAP_XIS = (0.0, 0.5, 1.0, 2.0, 4.0)
FIG_OVERLAP_RANGE = (-15.0, 15.0, 2001)
FIG_XI_RANGE = (0.0, 5.0, 251)
FIG_GAMMA_RANGE = (0.1, 3.0, 581)


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str | None
    output_dir: str
    overrides: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "command": self.command,
            "config_path": self.config_path,
            "output_dir": self.output_dir,
            "overrides": list(self.overrides),
            "outputs": list(self.outputs),
            "parameters": self.parameters,
        }


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _checked_path(out_dir: str, name: str, force: bool) -> str:
    path = os.path.join(out_dir, name)
    if os.path.exists(path) and not force:
        raise OverwriteRefused(f"{path} exists; pass --force to overwrite")
    return path


def _write_csv(out_dir, name, header, rows, force) -> str:
    path = _checked_path(out_dir, name, force)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return name


def _write_json(out_dir, name, payload, force) -> str:
    path = _checked_path(out_dir, name, force)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return name


def _finish(manifest: RunManifest, out_dir: str, force: bool):
    _write_json(out_dir, "run_manifest.json", manifest.as_dict(), force)
    for name in manifest.outputs:
        print(f"wrote {os.path.join(out_dir, name)}")
    print(f"wrote {os.path.join(out_dir, 'run_manifest.json')}")


def _load(args) -> rates.SourceConfig:
    if not args.config:
        raise ValidationError(f"command {args.command!r} requires --config PATH")
    overrides = list(args.set or [])
    if args.angle_convention:
        conv = {"internal": "internal_physics",
                "paper": "paper_external_as_internal"}[args.angle_convention]
        overrides.append(f"angle_convention={conv}")
    return cfgmod.load_config(args.config, args.material_db, overrides)


def _require_finite(args, *names):
    """Refuse NaN and infinite float flags before they reach np.linspace,
    which would warn on stderr."""
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise ValidationError(f"--{name.replace('_', '-')} must be a finite number")


def _xi_list(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"--xi {text!r}: expected comma-separated numbers") from None


def _overlap_rows(xis, lo, hi, points):
    grid = np.linspace(lo, hi, points)
    rows = []
    for xi in xis:
        vals = modes.phi_z(xi, grid)
        rows.extend(zip([xi] * points, grid.tolist(), np.asarray(vals).tolist()))
    return rows


def _xi_rows(lo, hi, points):
    grid = np.linspace(lo, hi, points)
    return list(zip(grid.tolist(), rates.spectral_integral_S(grid).tolist()))


def _gamma_rows(lo, hi, points):
    sweep = rates.gamma_sweep(lo, hi, points)
    best = max(range(len(sweep)), key=lambda i: sweep[i][1])
    return [(g, r, 1 if i == best else 0) for i, (g, r) in enumerate(sweep)]


def cmd_rate(args) -> RunManifest:
    cfg = _load(args)
    report = rates.total_rate(cfg)
    outputs = []
    scalar_rows = [
        ("Xi", report.Xi),
        ("S", report.S),
        ("R_T_pairs_per_s", report.R_T),
        ("R_T_thin_pairs_per_s", "" if report.R_T_thin is None else report.R_T_thin),
        ("efficiency_per_mm", report.efficiency_per_mm),
        ("efficiency_per_mm_sr",
         "" if report.efficiency_per_mm_sr is None else report.efficiency_per_mm_sr),
        ("pump_power_W", cfg.pump_power_p),
    ]
    outputs.append(_write_csv(args.out, "rate_report.csv", ["quantity", "value"],
                              scalar_rows, args.force))
    outputs.append(_write_csv(args.out, "rate_spectrum.csv",
                              ["omega_s_rad_per_s", "spectral_density_pairs_per_rad"],
                              report.spectral_samples, args.force))
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"Xi = {report.Xi:.6f}   S = {report.S:.6f}   "
          f"R_T = {report.R_T:.6g} pairs/s at P = {cfg.pump_power_p * 1e3:.6g} mW")
    return RunManifest("rate", args.config, args.out, list(args.set or []), outputs)


def cmd_spectrum(args) -> RunManifest:
    xis = _xi_list(args.xi) if args.xi else FIG_OVERLAP_XIS
    _require_finite(args, "dphi_min", "dphi_max")
    lo, hi, points = args.dphi_min, args.dphi_max, args.points
    if not lo < hi:
        raise ValidationError("require --dphi-min < --dphi-max")
    if points < 2:
        raise ValidationError("--points must be >= 2")
    outputs = [_write_csv(args.out, "spectrum_overlap.csv",
                          ["xi", "delta_phi", "phi_z_over_l"],
                          _overlap_rows(xis, lo, hi, points), args.force)]
    params = {"xi_list": list(xis), "delta_phi": [lo, hi], "points": points}
    if args.config:
        cfg = _load(args)
        report = rates.total_rate(cfg)
        geom = modes.geometry_coefficients(cfg.pump, cfg.signal, cfg.idler,
                                           cfg.crystal.length_l)
        l = cfg.crystal.length_l
        rows = []
        for omega_s, dens in report.spectral_samples:
            omega_i = cfg.pump.omega - omega_s
            dkz = rates.delta_k_z(cfg.signal.n, cfg.idler.n, cfg.pump.n,
                                  omega_s, omega_i, cfg.pump.omega,
                                  cfg.signal.theta, cfg.idler.theta)
            rows.append((omega_s, dkz * l / 2.0, dens))
        outputs.append(_write_csv(args.out, "spectrum_density.csv",
                                  ["omega_s_rad_per_s", "delta_phi",
                                   "spectral_density_pairs_per_rad"],
                                  rows, args.force))
        params["config_xi"] = geom.Xi
    return RunManifest("spectrum", args.config, args.out, list(args.set or []),
                       outputs, params)


def cmd_sweep_xi(args) -> RunManifest:
    _require_finite(args, "xi_min", "xi_max")
    if not (0 <= args.xi_min < args.xi_max):
        raise ValidationError("require 0 <= --xi-min < --xi-max")
    if args.points < 2:
        raise ValidationError("--points must be >= 2")
    outputs = [_write_csv(args.out, "sweep_xi.csv", ["xi", "S"],
                          _xi_rows(args.xi_min, args.xi_max, args.points), args.force)]
    return RunManifest("sweep-xi", None, args.out, list(args.set or []), outputs,
                       {"xi": [args.xi_min, args.xi_max], "points": args.points})


def cmd_sweep_gamma(args) -> RunManifest:
    outputs = [_write_csv(args.out, "sweep_gamma.csv",
                          ["gamma", "relative_rate", "is_max"],
                          _gamma_rows(args.gamma_min, args.gamma_max, args.points),
                          args.force)]
    return RunManifest("sweep-gamma", None, args.out, list(args.set or []), outputs,
                       {"gamma": [args.gamma_min, args.gamma_max],
                        "points": args.points})


def cmd_figures(args) -> RunManifest:
    """Regenerate the three standard figure datasets in one invocation."""
    outputs = []
    lo, hi, pts = FIG_OVERLAP_RANGE
    outputs.append(_write_csv(args.out, "fig_longitudinal_overlap.csv",
                              ["xi", "delta_phi", "phi_z_over_l"],
                              _overlap_rows(FIG_OVERLAP_XIS, lo, hi, pts), args.force))
    xlo, xhi, xpts = FIG_XI_RANGE
    outputs.append(_write_csv(args.out, "fig_spectral_integral.csv", ["xi", "S"],
                              _xi_rows(xlo, xhi, xpts), args.force))
    glo, ghi, gpts = FIG_GAMMA_RANGE
    outputs.append(_write_csv(args.out, "fig_waist_ratio.csv",
                              ["gamma", "relative_rate", "is_max"],
                              _gamma_rows(glo, ghi, gpts), args.force))
    params = {
        "longitudinal_overlap": {"xi_list": list(FIG_OVERLAP_XIS),
                                 "delta_phi": [lo, hi], "points": pts},
        "spectral_integral": {"xi": [xlo, xhi], "points": xpts},
        "waist_ratio": {"gamma": [glo, ghi], "points": gpts},
    }
    outputs.append(_write_json(args.out, "figures_manifest.json", params, args.force))
    return RunManifest("figures", None, args.out, list(args.set or []), outputs, params)


def cmd_compare_experiment(args) -> RunManifest:
    cfg = _load(args)
    rows, report = rates.experiment_comparison(cfg)
    csv_rows = [
        (r.quantity, r.model,
         "" if r.reference is None else r.reference,
         "" if r.rel_deviation is None else r.rel_deviation)
        for r in rows
    ]
    outputs = [_write_csv(args.out, "comparison.csv",
                          ["quantity", "model", "reference", "rel_deviation"],
                          csv_rows, args.force)]
    print(f"{'quantity':<42}{'model':>14}{'reference':>14}{'deviation':>11}")
    for r in rows:
        ref = f"{r.reference:.4g}" if r.reference is not None else "-"
        dev = f"{100 * r.rel_deviation:+.1f}%" if r.rel_deviation is not None else "-"
        print(f"{r.quantity:<42}{r.model:>14.5g}{ref:>14}{dev:>11}")
    for w in report.warnings:
        print(f"warning: {w}")
    return RunManifest("compare-experiment", args.config, args.out,
                       list(args.set or []), outputs)


_COMMANDS = {
    "rate": cmd_rate,
    "spectrum": cmd_spectrum,
    "sweep-xi": cmd_sweep_xi,
    "sweep-gamma": cmd_sweep_gamma,
    "figures": cmd_figures,
    "compare-experiment": cmd_compare_experiment,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdc-gauss",
        description="Photon-pair rates for SPDC into single Gaussian modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="source configuration JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted path)")
        p.add_argument("--material-db", help="alternative material database JSON")
        p.add_argument("--angle-convention", choices=["internal", "paper"],
                       help="shortcut for the angle_convention config field")

    common(sub.add_parser("rate", help="total rate report for a config"))
    p = sub.add_parser("spectrum", help="longitudinal overlap curves (and "
                                        "spectral density when --config given)")
    common(p)
    p.add_argument("--xi", help="comma-separated walk-off values "
                               "(default 0,0.5,1,2,4)")
    p.add_argument("--dphi-min", type=float, default=FIG_OVERLAP_RANGE[0])
    p.add_argument("--dphi-max", type=float, default=FIG_OVERLAP_RANGE[1])
    p.add_argument("--points", type=int, default=FIG_OVERLAP_RANGE[2])
    p = sub.add_parser("sweep-xi", help="spectral integral S versus walk-off")
    common(p)
    p.add_argument("--xi-min", type=float, default=FIG_XI_RANGE[0])
    p.add_argument("--xi-max", type=float, default=FIG_XI_RANGE[1])
    p.add_argument("--points", type=int, default=FIG_XI_RANGE[2])
    p = sub.add_parser("sweep-gamma", help="relative rate versus waist ratio")
    common(p)
    p.add_argument("--gamma-min", type=float, default=FIG_GAMMA_RANGE[0])
    p.add_argument("--gamma-max", type=float, default=FIG_GAMMA_RANGE[1])
    p.add_argument("--points", type=int, default=FIG_GAMMA_RANGE[2])
    common(sub.add_parser("figures", help="regenerate all figure datasets"))
    common(sub.add_parser("compare-experiment",
                          help="model vs reference values for a config"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        manifest = _COMMANDS[args.command](args)
        _finish(manifest, args.out, args.force)
    except ParseError as exc:
        print(f"error PARSE: {exc}", file=sys.stderr)
        return 2
    except UnknownMaterial as exc:
        print(f"error UNKNOWN_MATERIAL: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConfigurationError) as exc:
        print(f"error VALIDATION: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error NUMERICAL: {exc}", file=sys.stderr)
        return 3
    except OverwriteRefused as exc:
        print(f"error IO: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error IO: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
