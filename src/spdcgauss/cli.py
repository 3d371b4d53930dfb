"""Command-line interface.

Subcommands compute rates, spectra and sweep curves from a JSON source
configuration and emit CSV files (plus a JSON run manifest) suitable for
regenerating the model's characteristic figures and the worked BBO
comparison.  Output is deterministic: identical inputs and flags produce
byte-identical files.

A refused input prints one stderr line, ``error LABEL: message``, and
exits with its label's code (see :mod:`spdcgauss.errors`); success exits 0.
Only ``rate`` imports numpy, for its sampled spectrum; the other commands are
closed forms or float math.  The commands that need no source (``figures``,
``spectrum``, ``sweep-xi`` and ``sweep-gamma``) run on :mod:`spdcgauss.curves`
alone, without the geometry of :mod:`spdcgauss.modes`.  Loading a source
(:func:`spdcgauss.config.load_config`, whose module holds the source records)
loads no geometry, curve or rate code, so a refused source exits before any
of it is compiled; ``rate`` and ``compare-experiment`` import
:mod:`spdcgauss.rates` once the source is built.  The records are named
tuples, so no command loads ``dataclasses``.  ``IMPORT_CONTRACT`` in
``tests/test_cli.py`` states which modules each command loads.  Tables are
streamed to their CSV files, a chunk of rows at a time, each by one function
that ``figures`` calls on its figure grid and the one runner of the table
commands, :func:`cmd_table`, on the command's grid flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice

from .errors import OverwriteRefused, SpdcGaussError, ValidationError

__all__ = ["main"]

FIG_OVERLAP_XIS = (0.0, 0.5, 1.0, 2.0, 4.0)
FIG_OVERLAP_RANGE = (-15.0, 15.0, 2001)
FIG_XI_RANGE = (0.0, 5.0, 251)
FIG_GAMMA_RANGE = (0.1, 3.0, 581)

# the most points a sweep grid or a spectrum table may hold
MAX_POINTS = 10 ** 6
# rows formatted per write of a CSV table
_CSV_CHUNK = 4096
# the LRU bound on an overlap curve's cached |delta_phi|, above the figure grid's 1541 distinct
_MEMO_SIZE = 4096


def _checked_path(out_dir: str, name: str, force: bool) -> str:
    path = os.path.join(out_dir, name)
    if os.path.exists(path) and not force:
        raise OverwriteRefused(f"{path} exists; pass --force to overwrite")
    return path


def _write_csv(out_dir, name, header, rows, force) -> str:
    """``rows``: an iterable of tuples, or an (N, k) array; a cell is ``str`` of its
    Python value.  ``_CSV_CHUNK`` rows at a time are taken, formatted and written, so
    neither the text of a large table nor the rows of a generator are held whole."""
    path = _checked_path(out_dir, name, force)
    line = ",".join(["%s"] * len(header)) + "\n"
    rows = iter(rows.tolist() if hasattr(rows, "tolist") else rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CSV_CHUNK)):
            fh.write((line * len(chunk)) % tuple([c for row in chunk for c in row]))
    return name


def _write_json(out_dir, name, payload, force) -> str:
    path = _checked_path(out_dir, name, force)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return name


def _finish(args, outputs: list, parameters: dict):
    manifest = {"command": args.command, "config_path": getattr(args, "config", None),
                "output_dir": args.out, "overrides": getattr(args, "set", None) or [],
                "outputs": outputs, "parameters": parameters}
    outputs = outputs + [_write_json(args.out, "run_manifest.json", manifest, args.force)]
    for name in outputs:
        print(f"wrote {os.path.join(args.out, name)}")


def _grid(args, name):
    """``(--NAME-min, --NAME-max, --points)`` of a uniform grid; a
    non-finite bound, an empty range, < 2 points or more than MAX_POINTS
    is invalid input."""
    lo, hi = getattr(args, name + "_min"), getattr(args, name + "_max")
    for flag, value in ((f"--{name}-min", lo), (f"--{name}-max", hi)):
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be a finite number")
    if not lo < hi:
        raise ValidationError(f"require --{name}-min < --{name}-max")
    if not 2 <= args.points <= MAX_POINTS:
        raise ValidationError(f"--points must lie in [2, {MAX_POINTS}]")
    return lo, hi, args.points


def _xi_list(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"--xi {text!r}: expected comma-separated numbers") from None


def _overlap_rows(xis, lo, hi, points):
    """An iterator of the ``(xi, delta_phi, Phi_z/l)`` rows, every Xi and the grid checked
    first, so a refused input opens no file; a curve reads |delta_phi| only, through an
    LRU cache of the last ``_MEMO_SIZE`` values."""
    from . import curves
    grid = curves.uniform_grid(lo, hi, points)
    curve_list = []
    for xi in xis:  # in the order the rows would meet them: each Xi, then the grid
        curve_list.append(curves.phi_z_curve(xi))
        for d in (grid[0], grid[-2], grid[-1]):  # the grid is monotone: its ends bound it
            curve_list[-1](d)

    def rows():
        for xi, curve in zip(xis, curve_list):
            curve = functools.lru_cache(_MEMO_SIZE)(curve)
            for d in grid:
                yield xi, d, curve(abs(d))
    return rows()


def _overlap_table(args, name, lo, hi, points):
    xis = FIG_OVERLAP_XIS if getattr(args, "xi", None) is None else _xi_list(args.xi)
    if len(xis) * points > MAX_POINTS:  # refused before any row is built
        raise ValidationError(f"--xi values x --points must not exceed {MAX_POINTS} rows")
    return (_write_csv(args.out, name, ["xi", "delta_phi", "phi_z_over_l"],
                       _overlap_rows(xis, lo, hi, points), args.force),
            {"xi_list": list(xis), "delta_phi": [lo, hi], "points": points})


def _xi_table(args, name, lo, hi, points):
    from . import curves  # a negative lo is refused by spectral_integral_S
    rows = [(xi, curves.spectral_integral_S(xi)) for xi in curves.uniform_grid(lo, hi, points)]
    return (_write_csv(args.out, name, ["xi", "S"], rows, args.force),
            {"xi": [lo, hi], "points": points})


def _gamma_table(args, name, lo, hi, points):
    from . import curves
    sweep = curves.gamma_sweep(lo, hi, points)
    top = max(range(len(sweep)), key=lambda i: sweep[i][1])  # the first maximum, as argmax
    rows = [(g, r, int(i == top)) for i, (g, r) in enumerate(sweep)]
    return (_write_csv(args.out, name, ["gamma", "relative_rate", "is_max"], rows, args.force),
            {"gamma": [lo, hi], "points": points})


# each figure dataset: its manifest key, file, table (that of its command) and grid
FIGURES = (("longitudinal_overlap", "fig_longitudinal_overlap.csv", _overlap_table,
            FIG_OVERLAP_RANGE),
           ("spectral_integral", "fig_spectral_integral.csv", _xi_table, FIG_XI_RANGE),
           ("waist_ratio", "fig_waist_ratio.csv", _gamma_table, FIG_GAMMA_RANGE))


def cmd_rate(args, cfg):
    from . import rates
    report = rates.total_rate(cfg)
    scalar_rows = [
        ("Xi", report.Xi),
        ("S", report.S),
        ("R_T_pairs_per_s", report.R_T),
        ("R_T_thin_pairs_per_s", "" if report.R_T_thin is None else report.R_T_thin),
        ("pump_power_W", cfg.pump_power_p),
    ]
    outputs = [_write_csv(args.out, "rate_report.csv", ["quantity", "value"],
                          scalar_rows, args.force),
               _write_csv(args.out, "rate_spectrum.csv",
                          ["omega_s_rad_per_s", "spectral_density_pairs_per_rad", "delta_phi"],
                          report.spectral_samples, args.force)]
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"Xi = {report.Xi:.6g}   S = {report.S:.6g}   "
          f"R_T = {report.R_T:.6g} pairs/s at P = {cfg.pump_power_p * 1e3:.6g} mW")
    return outputs, {}


def cmd_table(args):
    """The table commands: ``args.table`` writes ``args.file`` over the grid of
    ``--FLAG-min``, ``--FLAG-max`` and ``--points``, FLAG being ``args.flag``."""
    name, params = args.table(args, args.file, *_grid(args, args.flag))
    return [name], params


def cmd_figures(args):
    """Regenerate the three standard figure datasets in one invocation."""
    outputs, params = [], {}
    for key, name, table, grid in FIGURES:
        written, params[key] = table(args, name, *grid)
        outputs.append(written)
    outputs.append(_write_json(args.out, "figures_manifest.json", params, args.force))
    return outputs, params


def cmd_compare_experiment(args, cfg):
    from . import rates
    rates._require_pair_ratio(cfg)  # refused before the rates, as experiment_comparison does
    report = rates.closed_form_report(cfg)
    rows = rates.comparison_rows(cfg, report)
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
        dev = f"{100 * r.rel_deviation:+.3g}%" if r.rel_deviation is not None else "-"
        print(f"{r.quantity:<42}{r.model:>14.5g}{ref:>14}{dev:>11}")
    for w in report.warnings:
        print(f"warning: {w}")
    return outputs, {}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ValidationError, so that it
    ends in the same one-line ``error VALIDATION:`` report as any other
    refused input (sub-parsers are built from this class too)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spdc-gauss",
                     description="Photon-pair rates for SPDC into single Gaussian modes")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, source=False, grid=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        if source:
            p.add_argument("--config", required=True, help="source configuration JSON")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config field (dotted path)")
            p.add_argument("--material-db", help="alternative material database JSON")
        if grid:  # (table, file, flag, (min, max, points)): what cmd_table runs
            table, file, flag, (lo, hi, points) = grid
            p.set_defaults(table=table, file=file, flag=flag)
            p.add_argument(f"--{flag}-min", type=float, default=lo)
            p.add_argument(f"--{flag}-max", type=float, default=hi)
            p.add_argument("--points", type=int, default=points)
        return p

    command("rate", cmd_rate, "total rate report for a config", source=True)
    p = command("spectrum", cmd_table, "longitudinal overlap curves",
                grid=(_overlap_table, "spectrum_overlap.csv", "dphi", FIG_OVERLAP_RANGE))
    p.add_argument("--xi", help="comma-separated walk-off values (default 0,0.5,1,2,4)")
    command("sweep-xi", cmd_table, "spectral integral S versus walk-off",
            grid=(_xi_table, "sweep_xi.csv", "xi", FIG_XI_RANGE))
    command("sweep-gamma", cmd_table, "relative rate versus waist ratio",
            grid=(_gamma_table, "sweep_gamma.csv", "gamma", FIG_GAMMA_RANGE))
    command("figures", cmd_figures, "regenerate all figure datasets")
    command("compare-experiment", cmd_compare_experiment,
            "model vs reference values for a config", source=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        sources = []
        if "config" in args:
            from .config import load_config
            sources = [load_config(args.config, args.material_db, args.set)]
        _finish(args, *args.run(args, *sources))
        return 0
    except SpdcGaussError as exc:
        label, code, message = exc.label, exc.exit_code, str(exc)
    except ArithmeticError as exc:  # inputs whose results leave the float range
        label, code, message = "NUMERICAL", 3, str(exc)
    except OSError as exc:
        label, code, message = "IO", 4, str(exc)
    # one stderr line, even where the message quotes input holding a newline
    print(f"error {label}: " + " ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
