import ast
import contextlib
import functools
import glob
import importlib
import io
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import types
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdcgauss as sg
from spdcgauss.cli import main
from spdcgauss.errors import ParseError, UnknownMaterial, ValidationError


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


# ---------------------------------------------------------------- config


def test_builtin_config_roundtrip(bbo_config):
    cfg = bbo_config
    assert cfg.pump_power_p == pytest.approx(1e-3, rel=1e-15)
    assert cfg.pump.lambda_vac == pytest.approx(351.1e-9, rel=1e-15)
    assert cfg.pump.waist_w == pytest.approx(82e-6, rel=1e-15)
    assert cfg.signal.lambda_vac == pytest.approx(702.2e-9, rel=1e-15)
    assert cfg.crystal.length_l == pytest.approx(2e-3, rel=1e-15)
    assert cfg.crystal.theta_c == pytest.approx(math.radians(49.7), rel=1e-15)
    assert cfg.external_collection_angle == pytest.approx(math.radians(3.1), rel=1e-15)
    assert cfg.pair_to_singles_ratio == 0.23
    assert cfg.decay_path_multiplicity == 2
    # paper convention: tilt used directly as the internal angle
    assert cfg.signal.theta == cfg.external_collection_angle
    again = sg.load_config(sg.builtin_config_path("bbo_branciard"))
    assert again == cfg


def test_angle_convention_internal():
    cfg = sg.load_config(sg.builtin_config_path(),
                         overrides=["angle_convention=internal_physics"])
    expect = math.asin(math.sin(math.radians(3.1)) / cfg.signal.n)
    assert cfg.signal.theta == pytest.approx(expect, rel=1e-12)
    assert cfg.signal.theta < math.radians(3.1)


def test_polarization_assignment_swaps_indices(bbo_config):
    swapped = sg.load_config(sg.builtin_config_path(),
                             overrides=["polarization_assignment=signal_extraordinary"])
    assert swapped.signal.n == bbo_config.idler.n
    assert swapped.idler.n == bbo_config.signal.n


def test_validation_bad_waist():
    with pytest.raises(ValidationError, match="pump.waist"):
        sg.load_config(sg.builtin_config_path(), overrides=["pump.waist_um=-1"])


@pytest.mark.parametrize("angle", ["-3", "90", "95"])
@pytest.mark.parametrize("convention", ["paper_external_as_internal", "internal_physics"])
def test_validation_external_angle_outside_range(angle, convention):
    with pytest.raises(ValidationError, match=r"collection\.external_angle_deg .* \[0, 90\)"):
        sg.load_config(sg.builtin_config_path(),
                       overrides=[f"collection.external_angle_deg={angle}",
                                  f"angle_convention={convention}"])


def test_validation_missing_polarization(tmp_path):
    raw = json.loads(pathlib.Path(sg.builtin_config_path()).read_text(encoding="utf-8"))
    del raw["polarization_assignment"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="signal_ordinary"):
        sg.load_config(str(p))


def test_unknown_material():
    with pytest.raises(UnknownMaterial, match="KTP"):
        sg.load_config(sg.builtin_config_path(), overrides=['crystal.material="KTP"'])


def test_parse_error_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{this is not json")
    with pytest.raises(ParseError):
        sg.load_config(str(p))


def test_overrides_of_absent_fields_objects_and_references(bbo_config, tmp_path):
    with open(sg.builtin_config_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    del raw["collection"]["decay_paths"]
    path = tmp_path / "no_decay_paths.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    pump = json.dumps({"wavelength_nm": 351.1, "power_mw": 1.0, "waist_um": 82.0})
    cfg = sg.load_config(str(path), overrides=["collection.decay_paths=3", f"pump={pump}",
                                               "reference.new_value=3"])
    assert cfg.signal == bbo_config.signal and cfg.pump == bbo_config.pump
    assert cfg.decay_path_multiplicity == 3
    assert cfg.reference_values["new_value"] == 3.0


@pytest.mark.parametrize("value, error", [
    (1.0, None),
    (None, "error VALIDATION: missing required field 'reference.x.y'"),
    ("1.0", "error PARSE: field 'reference.x.y': expected float, got str"),
    (math.inf, "error VALIDATION: field 'reference.x.y' must be a finite number"),
], ids=["number", "null", "quoted", "infinite"])
def test_reference_key_holding_a_dot_is_typed_under_its_own_name(tmp_path, capsys, value, error):
    with open(sg.builtin_config_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["reference"]["x.y"] = value
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["compare-experiment", "--config", str(path), "--out", str(tmp_path / "o")])
    assert capsys.readouterr().err.splitlines() == ([] if error is None else [error])
    assert code == (0 if error is None else 2)
    if error is None:
        cfg = sg.load_config(str(path), overrides=["reference.xi=0.9", "reference.new_value=3",
                                                   "reference.x.y=2"])
        assert cfg.reference_values == {**raw["reference"], "xi": 0.9, "new_value": 3.0,
                                        "x.y": 2.0}


@pytest.mark.parametrize("key", ["pump.powr_mw", "target_angle_deg", "crystal.length", ""])
def test_override_key_no_field_reads_refused(key):
    with pytest.raises(ValidationError, match=re.escape(repr(key))):
        sg.load_config(sg.builtin_config_path(), overrides=[f"{key}=5"])


def test_degenerate_wavelength_enforced(bbo_config):
    with pytest.raises(ValidationError, match="wavelength"):
        sg.load_config(sg.builtin_config_path(),
                       overrides=["signal.wavelength_nm=700.0"])
    # a record built directly meets the record's own check
    for role in ("signal", "idler"):
        mode = getattr(bbo_config, role)._replace(lambda_vac=700e-9)
        with pytest.raises(ValidationError, match=f"{role}.wavelength: degenerate operation"):
            bbo_config._replace(**{role: mode})


@pytest.mark.parametrize("command", ["rate", "compare-experiment"])
@pytest.mark.parametrize("section, key, value", [
    ("collection", "decay_path", 1),  # a misspelt decay_paths: ran at the default 2 paths
    (None, "angle_conventon", "paper_external_as_internal"),  # ran under the default
    ("signal", "wavelength_nm", 702.2),  # the daughters are 2 lambda_p, set by no field
    (None, "extra", {}),  # an empty object holds no field to read
    (None, "crystal.length_mm", 2.0),  # a dotted top-level key is no section's field
])
def test_config_file_key_no_field_reads_refused(tmp_path, capsys, command, section, key, value):
    with open(sg.builtin_config_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    (raw[section] if section else raw)[key] = value
    path = tmp_path / "unread.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    name = f"{section}.{key}" if section else key
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error VALIDATION:") and repr(name) in err[0]
    assert not out.exists() or not os.listdir(out)


# ------------------------------------------------------------------ CLI


def test_cli_spectrum_defaults(tmp_path):
    out = str(tmp_path / "o")
    assert main(["spectrum", "--out", out, "--points", "301",
                 "--dphi-min", "-15", "--dphi-max", "15"]) == 0
    header, rows = read_csv(os.path.join(out, "spectrum_overlap.csv"))
    assert header == ["xi", "delta_phi", "phi_z_over_l"]
    data = {}
    for xi, dphi, val in rows:
        data.setdefault(float(xi), {})[float(dphi)] = float(val)
    assert set(data) == {0.0, 0.5, 1.0, 2.0, 4.0}
    assert data[0.0][0.0] == pytest.approx(1.0, abs=1e-9)
    # larger walk-off -> lower peak (the curves' ordering at delta_phi = 0)
    peaks = [data[xi][0.0] for xi in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_cli_spectrum_large_xi_gaussian_shape(tmp_path):
    out = str(tmp_path / "o")
    assert main(["spectrum", "--out", out, "--xi", "4", "--points", "241",
                 "--dphi-min", "-6", "--dphi-max", "6"]) == 0
    _, rows = read_csv(os.path.join(out, "spectrum_overlap.csv"))
    dphi = np.array([float(r[1]) for r in rows])
    val = np.array([float(r[2]) for r in rows])
    # log(phi) against dphi^2 must be a straight line with slope -1/(4 Xi^2)
    coeff = np.polyfit(dphi**2, np.log(val), 1)
    residual = np.log(val) - np.polyval(coeff, dphi**2)
    assert coeff[0] == pytest.approx(-1.0 / 64.0, rel=1e-3)
    assert np.max(np.abs(residual)) < 1e-4


def test_cli_spectrum_at_huge_xi(tmp_path):
    # sqrt(pi)/(2 Xi) = 8.86e-309 at Xi = 1e308, where 2 Xi overflows
    out = str(tmp_path / "s")
    assert main(["spectrum", "--out", out, "--xi", "1e308", "--points", "3"]) == 0
    _, rows = read_csv(os.path.join(out, "spectrum_overlap.csv"))
    assert len(rows) == 3
    for row in rows:
        assert float(row[2]) == pytest.approx(0.886226925452758e-308, rel=1e-12)


def test_cli_spectrum_with_config(tmp_path, capsys):
    # a source's spectrum comes from `rate`; `spectrum` takes no config
    out = str(tmp_path / "o")
    assert main(["spectrum", "--out", out,
                 "--config", sg.builtin_config_path()]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error VALIDATION:")
    assert main(["rate", "--out", out, "--config", sg.builtin_config_path()]) == 0
    header, rows = read_csv(os.path.join(out, "rate_spectrum.csv"))
    assert header == ["omega_s_rad_per_s", "spectral_density_pairs_per_rad",
                      "delta_phi"]
    dens = np.array([float(r[1]) for r in rows])
    dphi = np.array([float(r[2]) for r in rows])
    assert np.all(dens >= 0)
    assert dens.max() > 0
    assert dphi.min() == pytest.approx(-100.0, abs=1e-6)
    assert dphi.max() == pytest.approx(100.0, abs=1e-6)


def test_cli_sweep_xi(tmp_path):
    out = str(tmp_path / "o")
    assert main(["sweep-xi", "--out", out, "--xi-min", "0",
                 "--xi-max", "2", "--points", "9"]) == 0
    header, rows = read_csv(os.path.join(out, "sweep_xi.csv"))
    assert header == ["xi", "S"]
    xi0, s0 = (float(v) for v in rows[0])
    assert xi0 == 0.0
    assert s0 == pytest.approx(math.pi, abs=1e-6)
    svals = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(svals, svals[1:]))


def test_cli_sweep_xi_positive_up_to_the_float_maximum(tmp_path):
    # S = pi^1.5 erf(sqrt2 Xi)/(2 sqrt2 Xi) once wrote 0.0 where 2 sqrt2 Xi overflowed
    out = str(tmp_path / "o")
    assert main(["sweep-xi", "--out", out, "--xi-min", "0",
                 "--xi-max", repr(sys.float_info.max), "--points", "3"]) == 0
    _, rows = read_csv(os.path.join(out, "sweep_xi.csv"))
    assert len(rows) == 3 and all(float(s) > 0.0 for _, s in rows)


def test_cli_sweep_gamma(tmp_path):
    out = str(tmp_path / "o")
    assert main(["sweep-gamma", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "sweep_gamma.csv"))
    assert header == ["gamma", "relative_rate", "is_max"]
    gam = np.array([float(r[0]) for r in rows])
    val = np.array([float(r[1]) for r in rows])
    marked = [i for i, r in enumerate(rows) if r[2] == "1"]
    assert len(marked) == 1
    assert gam[marked[0]] == pytest.approx(1 / math.sqrt(2), abs=0.006)
    idx_one = int(np.argmin(np.abs(gam - 1.0)))
    assert val[idx_one] == pytest.approx(8 / 9, abs=1e-3)
    i, j = int(np.argmin(np.abs(gam - 0.2))), int(np.argmin(np.abs(gam - 2.5)))
    assert val[i] == pytest.approx(val[j], rel=1e-9)


def test_cli_rate_and_set_override(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfgp = sg.builtin_config_path()
    assert main(["rate", "--config", cfgp, "--out", out1]) == 0
    assert main(["rate", "--config", cfgp, "--out", out2,
                 "--set", "pump.power_mw=2.0"]) == 0

    def rt(out):
        _, rows = read_csv(os.path.join(out, "rate_report.csv"))
        return {r[0]: r[1] for r in rows}

    r1, r2 = rt(out1), rt(out2)
    assert float(r2["R_T_pairs_per_s"]) == pytest.approx(
        2 * float(r1["R_T_pairs_per_s"]), rel=1e-9)
    manifest = json.loads(pathlib.Path(out2, "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "rate"
    assert manifest["overrides"] == ["pump.power_mw=2.0"]
    assert "rate_report.csv" in manifest["outputs"]


# fields that only the comparison reads; at 1e-322 sr its per-sr efficiency overflows
COMPARISON_ONLY_OVERRIDES = ("collection.solid_angle_sr=1e-322",
                             f"collection.solid_angle_sr={4 * math.pi!r}",
                             "collection.pair_to_singles_ratio=1", "collection.decay_paths=1",
                             "reference={}")


def test_cli_rate_reads_no_comparison_only_field(tmp_path, capsys):
    out = tmp_path / "o"

    def run(*overrides):
        argv = ["rate", "--config", sg.builtin_config_path(), "--out", str(out), "--force"]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", (argv, captured.err)
        return ((out / "rate_report.csv").read_bytes(), (out / "rate_spectrum.csv").read_bytes(),
                captured.out)

    shipped = run()
    _, rows = read_csv(out / "rate_report.csv")
    # the efficiencies live in the comparison alone, in its thin-crystal normalization
    assert [r[0] for r in rows] == ["Xi", "S", "R_T_pairs_per_s", "R_T_thin_pairs_per_s",
                                    "pump_power_W"]
    for override in COMPARISON_ONLY_OVERRIDES:
        assert run(override) == shipped, override


def test_cli_compare_experiment(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["compare-experiment", "--config", sg.builtin_config_path(),
                 "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "comparison.csv"))
    assert header == ["quantity", "model", "reference", "rel_deviation"]
    table = {r[0]: r for r in rows}
    assert float(table["walk_off_parameter_Xi"][1]) == pytest.approx(0.933, rel=5e-3)
    assert float(table["observable_pairs_per_mW_s"][1]) == pytest.approx(1100, rel=0.15)
    captured = capsys.readouterr()
    assert "observable_pairs_per_mW_s" in captured.out


def test_cli_rate_warns_on_vanishing_d_eff(tmp_path, capsys):
    # phi_c = 30 deg is a zero of cos(3 phi_c): d_eff and the rate vanish
    cfgp = sg.builtin_config_path()
    assert main(["rate", "--config", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert "d_eff" not in capsys.readouterr().out
    out = str(tmp_path / "b")
    assert main(["rate", "--config", cfgp, "--out", out,
                 "--set", "crystal.phi_c_deg=30"]) == 0
    _, rows = read_csv(os.path.join(out, "rate_report.csv"))
    assert float({r[0]: r[1] for r in rows}["R_T_pairs_per_s"]) < 1e-20
    assert "warning: d_eff" in capsys.readouterr().out


def test_cli_compare_internal_convention_warns(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["compare-experiment", "--config", sg.builtin_config_path(),
                 "--out", out, "--set", "angle_convention=internal_physics"]) == 0
    _, rows = read_csv(os.path.join(out, "comparison.csv"))
    xi = float({r[0]: r for r in rows}["walk_off_parameter_Xi"][1])
    assert xi == pytest.approx(0.573, abs=0.01)  # Snell-refracted tilt
    assert "warning" in capsys.readouterr().out


@pytest.mark.parametrize("convention, warns", [("internal_physics", 1),
                                               ("paper_external_as_internal", 0)])
def test_cli_rate_and_compare_print_the_walk_off_warning(tmp_path, capsys, convention, warns):
    # the source's report decides the warning, so rate prints it as compare-experiment does
    for command in ("rate", "compare-experiment"):
        assert main([command, "--config", sg.builtin_config_path(), "--out",
                     str(tmp_path / command), "--set", f"angle_convention={convention}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("warning: walk-off parameter") for line in lines) == warns


def test_cli_overwrite_refusal(tmp_path):
    out = str(tmp_path / "o")
    args = ["sweep-gamma", "--out", out, "--points", "11"]
    assert main(args) == 0
    assert main(args) == 4
    assert main(args + ["--force"]) == 0


def test_cli_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("")
    assert main(["sweep-gamma", "--out", str(out), "--points", "11"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error IO:"), err
    assert out.read_text() == ""


@pytest.mark.parametrize("text", ["[]", "[{}]", "3", '"bbo"', "null"])
def test_cli_config_not_a_json_object_is_a_parse_error(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error PARSE: {cfg}: top level must be a JSON object"]


def test_cli_compare_without_a_solid_angle_writes_no_per_sr_row(tmp_path):
    out = tmp_path / "o"
    assert main(["compare-experiment", "--config", sg.builtin_config_path(), "--out", str(out),
                 "--set", "collection.solid_angle_sr=null"]) == 0
    _, rows = read_csv(str(out / "comparison.csv"))
    names = [r[0] for r in rows]
    assert "efficiency_per_mm" in names and "efficiency_per_mm_sr" not in names


def test_cli_validation_exit_code(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = main(["rate", "--config", sg.builtin_config_path(), "--out", out,
                 "--set", "pump.waist_um=-5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error VALIDATION:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    # theta_c = 0 makes the extraordinary daughter index equal n_o, a
    # type-I-like degenerate pair: the dispersion factor vanishes
    ["rate", "--set", "crystal.theta_c_deg=0", "--set", "collection.external_angle_deg=0"],
    # R_T beyond the float range
    ["rate", "--set", "pump.power_mw=1e308"],
    # the thin-crystal rate behind the efficiencies beyond the float range
    ["compare-experiment", "--set", "crystal.length_mm=1e305"],
    # the spectral density prefactor beyond the float range
    ["rate", "--set", "pump.waist_um=1e-50", "--set", "signal.waist_um=1e-50",
     "--set", "idler.waist_um=1e-50"],
    # the thin-crystal efficiency per sr beyond the float range
    ["compare-experiment", "--set", "collection.solid_angle_sr=1e-320"],
    # a pump waist whose square underflows, at the small end of the waist-ratio sweep
    ["sweep-gamma", "--gamma-min", "1e-170", "--gamma-max", "1"],
    # waists whose squares underflow to 0 or overflow, in the overlap coefficients
    ["compare-experiment", "--set", "pump.waist_um=1e-200", "--set", "signal.waist_um=1e-200",
     "--set", "idler.waist_um=1e-200"],
    ["compare-experiment", "--set", "pump.waist_um=1e200", "--set", "signal.waist_um=1e200",
     "--set", "idler.waist_um=1e200"],
    # waists whose overlap coefficients A and C have a product that underflows to 0
    ["rate", "--set", "pump.waist_um=1e100", "--set", "signal.waist_um=1e100",
     "--set", "idler.waist_um=1e100"],
    # a 4 d^2 P l or a rate hbar omega_p below the smallest normal float: R_T and the
    # efficiencies read short of digits, or 0.0, and exited 0
    *(["compare-experiment", "--set", f"pump.power_mw={p}"]
      for p in ("1e-278", "1e-280", "1e-290", "1e-297", "1e-320")),
    ["rate", "--set", "pump.power_mw=1e-297"],
    ["compare-experiment", "--set", "crystal.length_mm=1e-300"],
    # an observable paths ratio R_T, a thin-crystal efficiency per mm or a relative
    # deviation in percent beyond the float range read subnormal, or inf, and exited 0
    ["compare-experiment", "--set", "collection.pair_to_singles_ratio=1e-320"],
    ["compare-experiment", "--set", "pump.power_mw=1e250", "--set", "pump.waist_um=1e150",
     "--set", "signal.waist_um=1e150", "--set", "idler.waist_um=1e150"],
    ["compare-experiment", "--set", "reference.xi=5e-307"],
    ["compare-experiment", "--set", "reference.r_t_per_mw_s=1e-300", "--set", "pump.waist_um=1e-3",
     "--set", "signal.waist_um=1e-3", "--set", "idler.waist_um=1e-3"],
    # an observable paths ratio R_T that overflows read inf, as did the efficiency per mm,
    # and exited 0
    ["compare-experiment", "--set", 'collection={"external_angle_deg": 3.1, '
     f'"pair_to_singles_ratio": 0.23, "decay_paths": {10 ** 306}}}', "--set", "reference={}"],
], ids=["degenerate-dispersion", "rate-overflow", "thin-rate-overflow", "density-overflow",
        "thin-efficiency-overflow", "gamma-underflow",
        "waist-underflow", "waist-overflow", "overlap-underflow", "efficiency-underflow",
        "rate-underflow-1e-280", "rate-underflow-1e-290", "rate-underflow-1e-297",
        "rate-underflow-1e-320", "total-rate-underflow", "length-underflow",
        "observable-underflow", "thin-efficiency-underflow", "deviation-percent-overflow",
        "deviation-overflow", "observable-overflow"])
def test_cli_numerical_exit_code(tmp_path, capsys, argv):
    out = str(tmp_path / "o")
    source = ["--config", sg.builtin_config_path()] if argv[0] != "sweep-gamma" else []
    code = main(argv + source + ["--out", out])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error NUMERICAL:")
    # the library's message, not Python's
    assert "division by zero" not in err[0] and "Numerical result out of range" not in err[0]


@pytest.mark.parametrize("argv", [
    ["rate", "--config", sg.builtin_config_path(), "--set", "crystal.length_mm=Infinity"],
    ["rate", "--config", sg.builtin_config_path(), "--set", "pump.power_mw=NaN"],
    ["rate", "--config", sg.builtin_config_path(), "--set", "pump.waist_um=1e400"],
    ["spectrum", "--xi", "nan"],
    ["spectrum", "--xi", "1,abc"],
    ["spectrum", "--xi", ""],
    ["spectrum", "--dphi-max", "inf"],
    ["spectrum", "--dphi-min=-2e5"],
    ["spectrum", "--xi", "0,1", "--points", "500001"],  # a table beyond MAX_POINTS rows
    ["sweep-xi", "--xi-max", "inf"],
    ["sweep-gamma", "--gamma-min", "nan"],
    ["sweep-gamma", "--gamma-max", "inf"],
    ["compare-experiment", "--config", sg.builtin_config_path(),
     "--set", "crystal.length_mm=1e-320"],
    ["compare-experiment", "--config", sg.builtin_config_path(),
     "--set", "collection.solid_angle_sr=-1"],
    ["compare-experiment", "--config", sg.builtin_config_path(),
     "--set", "collection.pair_to_singles_ratio=-1"],
    ["compare-experiment", "--config", sg.builtin_config_path(),
     "--set", "collection.solid_angle_sr=0"],
    # keys that no config field reads
    ["rate", "--config", sg.builtin_config_path(), "--set", "pump.powr_mw=5"],
    ["compare-experiment", "--config", sg.builtin_config_path(), "--set", "target_angle_deg=0"],
    # under the shipped convention this ran as +3 deg, the model being even in the tilt
    ["rate", "--config", sg.builtin_config_path(), "--set", "collection.external_angle_deg=-3"],
    # an int field beyond the float range ran into "int too large to convert to float" (exit 3)
    ["compare-experiment", "--config", sg.builtin_config_path(),
     "--set", "collection.decay_paths=1" + "0" * 400],
    # beyond the 4 pi sr of the whole sphere: read as a tiny or subnormal efficiency per sr
    *(["compare-experiment", "--config", sg.builtin_config_path(),
       "--set", f"collection.solid_angle_sr={sr}"] for sr in ("20", "1e300")),
    # a reference that is 0, negative or subnormal scales no relative deviation (it read inf)
    *(["compare-experiment", "--config", sg.builtin_config_path(), "--set", f"reference.{ref}"]
      for ref in ("xi=5e-324", "xi=0", "predicted_observable_per_mw_s=-1e-320")),
    # an override that is not KEY=VALUE
    ["rate", "--config", sg.builtin_config_path(), "--set", "pumpwaist"],
])
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_cli_non_finite_inputs_refused(tmp_path, capsys, argv):
    out = str(tmp_path / "o")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error VALIDATION:")
    assert not os.path.exists(out) or not os.listdir(out)  # refused before any file is opened


@pytest.mark.parametrize("argv", [
    ["--xi", "nan"],
    ["--xi", "-1"],
    ["--xi", "0,nan", "--points", "5000"],  # the second curve is refused
    ["--dphi-min=-2e5"],
    ["--dphi-max", "100001", "--points", "5000"],
])
def test_cli_refused_spectrum_keeps_an_earlier_table(tmp_path, capsys, argv):
    out = str(tmp_path / "o")
    assert main(["spectrum", "--out", out]) == 0
    with open(os.path.join(out, "spectrum_overlap.csv"), "rb") as fh:
        table = fh.read()
    assert main(["spectrum", *argv, "--out", out, "--force"]) == 2
    assert capsys.readouterr().err.startswith("error VALIDATION:")
    with open(os.path.join(out, "spectrum_overlap.csv"), "rb") as fh:
        assert fh.read() == table


def run_child(*args, cwd=None, python=sys.executable, path=(), **env):
    """``python *args`` in a fresh interpreter that imports the package under test, and
    what lies in the directories ``path``, with the variables ``env`` set too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(sg.__file__)), *path]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", **env)
    return subprocess.run([python, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _other_interpreters():
    """The interpreters ``~/.pyenv/versions/3.*/bin/python3`` of another version than
    this one that ``requires-python`` in ``pyproject.toml`` admits."""
    pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        least = int(re.search(r'requires-python = ">=3\.(\d+)"', fh.read()).group(1))
    found = []
    for python in sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.*/bin/python3"))):
        version = python.split(os.sep)[-3]
        minor = re.match(r"3\.(\d+)", version)
        if minor and int(minor.group(1)) >= least and version != platform.python_version():
            found.append(python)
    return found


# the numpy-free commands: figures, the comparison and a refused source
NUMPY_FREE_RUNS = (["figures", "--out", "figures"],
                   ["compare-experiment", "--config", sg.builtin_config_path(), "--out", "compare"],
                   ["rate", "--config", sg.builtin_config_path(), "--set", "pump.waist_um=-50",
                    "--out", "refused"])


def _numpy_free_outputs(python, cwd):
    """``{command: (exit code, stdout, stderr, {file: bytes})}`` of NUMPY_FREE_RUNS."""
    cwd.mkdir()
    outputs = {}
    for argv in NUMPY_FREE_RUNS:
        proc = run_child("-m", "spdcgauss.cli", *argv, cwd=cwd, python=python,
                         PYTHONDONTWRITEBYTECODE="1")
        out = cwd / argv[-1]
        outputs[argv[0]] = (proc.returncode, proc.stdout, proc.stderr,
                            {path.name: path.read_bytes() for path in sorted(out.iterdir())})
    return outputs


def test_numpy_free_commands_match_across_interpreters(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other interpreter admitted by requires-python under ~/.pyenv/versions")
    want = _numpy_free_outputs(sys.executable, tmp_path / "this")
    assert [(code, err) for code, _, err, _ in want.values()] == [
        (0, ""), (0, ""), (2, "error VALIDATION: pump.waist must be finite and > 0\n")]
    for python in others:
        got = _numpy_free_outputs(python, tmp_path / python.split(os.sep)[-3])
        for command, (code, out, err, files) in want.items():
            assert got[command][:3] == (code, out, err), (python, command)
            assert sorted(got[command][3]) == sorted(files), (python, command)
            for name, data in files.items():
                assert got[command][3][name] == data, (python, command, name)


# The import contract.  The model is closed-form, so no command loads numpy but
# `rate`, for its sampled spectrum, and commands without a source load none of
# config, materials and rates.  A row: argv (None: the library alone, loading the
# material database and a config with overrides), the exit code and stderr, the
# modules that must not load and those that must.
SOURCE_MODULES = ("spdcgauss.config", "spdcgauss.materials", "spdcgauss.rates")
# the records are named tuples: no command loads dataclasses, and only numpy loads inspect
RECORD_MODULES = ("dataclasses", "inspect")
# the commands without a source run on the float curves alone: no geometry records
GEOMETRY_MODULES = (*RECORD_MODULES, "spdcgauss.modes")
# the source records live in config: loading or refusing a source compiles none of these
MODEL_MODULES = ("spdcgauss.curves", "spdcgauss.modes", "spdcgauss.rates")
IMPORT_CONTRACT = [
    pytest.param(None, 0, "", ("numpy", *RECORD_MODULES, *MODEL_MODULES), (), id="library"),
    pytest.param(["--help"], 0, "", ("numpy",), (), id="help"),
    pytest.param(["rate", "--config", sg.builtin_config_path(), "--set", "pump.waist_um=-50"],
                 2, "error VALIDATION: pump.waist must be finite and > 0\n",
                 ("numpy", *RECORD_MODULES, *MODEL_MODULES), (), id="refused"),
    pytest.param(["figures"], 0, "", ("numpy", "numpy.polynomial", "scipy", *SOURCE_MODULES,
                                      *GEOMETRY_MODULES), ("spdcgauss.curves",), id="figures"),
    *(pytest.param([command], 0, "",
                   ("numpy", "numpy.polynomial", *SOURCE_MODULES, *GEOMETRY_MODULES),
                   ("spdcgauss.curves",), id=command)
      for command in ("spectrum", "sweep-xi", "sweep-gamma")),
    pytest.param(["compare-experiment", "--config", sg.builtin_config_path()],
                 0, "", ("numpy", *RECORD_MODULES), SOURCE_MODULES, id="compare-experiment"),
    pytest.param(["rate", "--config", sg.builtin_config_path()], 0, "",
                 ("dataclasses", "numpy.ma", "numpy.polynomial", "scipy"),
                 ("numpy", *SOURCE_MODULES), id="rate"),
]
# The rows again under python -S, which runs no site hook: a hook may load modules first
# (a .pth file that imports certifi loads importlib.resources).  The package finds its
# data by its own directory, so no row that reads a source loads importlib.resources.
IMPORT_CONTRACT = [pytest.param((), *row.values, id=row.id) for row in IMPORT_CONTRACT] + [
    pytest.param(("-S",), *row.values[:3], (*row.values[3], "importlib.resources"),
                 row.values[4], id=f"{row.id}-S")
    for row in IMPORT_CONTRACT if row.id in ("library", "refused", "compare-experiment", "rate")]

# runs one row, prints the loaded modules, then checks that the lazy package
# exports still bind through import *
CONTRACT_CHILD = """\
import json, sys
import spdcgauss
argv = json.loads(sys.argv[1])
if argv is None:
    spdcgauss.load_material_db()
    spdcgauss.load_config(spdcgauss.builtin_config_path(),
                          overrides=["pump.power_mw=2", "angle_convention=internal_physics"])
    code = 0
else:
    from spdcgauss import cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps(sorted(sys.modules)))
from spdcgauss import *
assert load_config is spdcgauss.config.load_config and total_rate is spdcgauss.rates.total_rate
sys.exit(code)
"""


@pytest.mark.parametrize("options, argv, code, stderr, unloaded, loaded", IMPORT_CONTRACT)
def test_import_contract(tmp_path, options, argv, code, stderr, unloaded, loaded):
    # without site, numpy's directory is not on sys.path: `rate` finds it on PYTHONPATH
    numpy_path = [os.path.dirname(os.path.dirname(np.__file__))] if options else []
    proc = run_child(*options, "-c", CONTRACT_CHILD, json.dumps(argv), cwd=tmp_path,
                     path=numpy_path)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    modules = set(json.loads(proc.stdout.splitlines()[-1]))
    assert [m for m in unloaded if m in modules] == []
    assert [m for m in loaded if m not in modules] == []


# where the package imports numpy: the one array function of modes and the one of rates
NUMPY_IMPORT_SITES = ["modes.phi_z_grid", "rates.total_rate"]


def numpy_import_sites(node, scope):
    """The scope of every ``import numpy...`` / ``from numpy... import`` under
    ``node``: ``scope`` and the names of the enclosing definitions, joined by
    dots."""
    sites = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            sites.append(scope)
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        sites += numpy_import_sites(child, inner)
    return sites


def test_numpy_imported_in_two_functions():
    # the source of the package that is imported, which may be an installed copy
    package = os.path.dirname(sg.__file__)
    sites = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            sites += numpy_import_sites(tree, name[:-3])
    assert sorted(sites) == NUMPY_IMPORT_SITES


@pytest.mark.parametrize("command", ["spectrum", "sweep-xi", "sweep-gamma"])
def test_cli_points_above_the_bound_refused(tmp_path, capsys, command):
    from spdcgauss.cli import MAX_POINTS
    out = str(tmp_path / "o")
    assert main([command, "--out", out, "--points", str(MAX_POINTS + 1)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error VALIDATION: --points")
    assert not os.path.exists(out) or not os.listdir(out)


def test_cli_compare_refuses_a_source_far_from_phase_matching(tmp_path, capsys):
    # rate refuses to sample this spectrum; the closed-form comparison refuses it too.
    # At 31.841985 deg the sampled window, clipped to (0, omega_p), came out reversed:
    # both commands exited 0 with a spectrum that ran downward over ~4e-4 in delta_phi
    for theta_deg in ("30", "31.841985"):
        for command in ("rate", "compare-experiment"):
            assert main([command, "--config", sg.builtin_config_path(), "--out", str(tmp_path),
                         "--set", f"crystal.theta_c_deg={theta_deg}"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == ["error VALIDATION: omega_s must lie strictly inside (0, omega_p)"]


# all three waists at 1e-3 um: Xi = sqrt(H) l/2 = 3.8e4 l_mm
TINY_WAISTS = ["--set", "pump.waist_um=1e-3", "--set", "signal.waist_um=1e-3",
               "--set", "idler.waist_um=1e-3"]


@pytest.mark.parametrize("length_mm", ["2.33e303", "3e303"])
@pytest.mark.parametrize("command", ["rate", "compare-experiment"])
def test_cli_huge_xi_is_numerical(tmp_path, capsys, command, length_mm):
    # at 2.33e303 mm, Xi = 8.9e307 and S = 2.2e-308 is subnormal; at 3e303 mm sqrt(H) l
    # overflows.  Both exited 2 as VALIDATION, with S = 0.0 or Xi = inf out of range
    assert main([command, "--config", sg.builtin_config_path(), "--out", str(tmp_path),
                 *TINY_WAISTS, "--set", f"crystal.length_mm={length_mm}"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error NUMERICAL:")


def test_cli_rate_overlap_limited_at_huge_xi(tmp_path, capsys):
    # where Xi >> 1, R_T ~ l S(Xi) ~ l/Xi holds no crystal length: at 2e303 mm, Xi = 7.6e307
    # and the normal S = 2.6e-308 give the rate of a 2 mm crystal (S once read 0.0, exit 2)
    rates = []
    for length_mm in ("2", "2e303"):
        out = tmp_path / length_mm
        assert main(["rate", "--config", sg.builtin_config_path(), "--out", str(out),
                     *TINY_WAISTS, "--set", f"crystal.length_mm={length_mm}"]) == 0
        _, rows = read_csv(out / "rate_report.csv")
        rates.append({quantity: float(value) for quantity, value in rows if value})
    assert capsys.readouterr().err == ""
    assert rates[1]["Xi"] == pytest.approx(7.6479e307, rel=1e-4)
    assert sys.float_info.min <= rates[1]["S"] < 3e-308
    assert rates[1]["R_T_pairs_per_s"] == pytest.approx(rates[0]["R_T_pairs_per_s"], rel=1e-12)


# every name the package exported before its exports became lazy, less EnergyMismatch
PACKAGE_EXPORTS = (
    "AngleConvention", "ComputationError", "ConfigurationError", "CrystalSpec",
    "DegenerateDispersion", "GaussianMode", "MaterialRecord", "NegativeH",
    "OutOfRange", "OverlapGeometry", "OverwriteRefused", "ParseError",
    "PolarizationAssignment", "RateReport", "Role", "SellmeierSet", "SourceConfig",
    "SpdcGaussError", "UnequalWaists", "UnknownMaterial", "ValidationError",
    "builtin_config_path", "config", "constants", "errors", "experiment_comparison",
    "gamma_sweep", "load_config", "load_material_db", "materials", "modes", "optimal_gamma",
    "rates", "total_rate", "waist_scaling",
)


def test_package_exports_resolve_by_attribute_and_star_import():
    namespace = {}
    exec("from spdcgauss import *", namespace)
    for name in PACKAGE_EXPORTS:
        assert namespace[name] is getattr(sg, name), name
    with pytest.raises(AttributeError):
        sg.no_such_name
    # the source records live in config
    for name in ("Role", "GaussianMode", "AngleConvention", "PolarizationAssignment",
                 "SourceConfig"):
        record = getattr(sg.config, name)
        assert getattr(sg, name) is record, name
        assert record.__module__ == "spdcgauss.config", name
    # a name in a submodule's __all__ that the submodule lacks fails its star import
    for module in ("cli", *sg._SUBMODULES):
        exec(f"from spdcgauss.{module} import *", {})


def test_every_public_name_has_one_home():
    # a submodule's __all__ lists what it defines; errors and constants have none
    exports = {}
    for module in ("cli", *sg._SUBMODULES):
        mod = importlib.import_module(f"spdcgauss.{module}")
        if hasattr(mod, "__all__"):
            exports[module] = mod.__all__
            for name in mod.__all__:
                value = getattr(mod, name)
                if isinstance(value, (type, types.FunctionType)):
                    assert value.__module__ == mod.__name__, (module, name)
    homes = [name for names in exports.values() for name in names]
    assert sorted(name for name in set(homes) if homes.count(name) > 1) == []
    for module, names in sg._LAZY.items():
        if module in exports:
            assert set(names) <= set(exports[module]), module


def _csv_by_row_join(header, rows):
    """The CSV text as one ``",".join`` of ``str`` cells per row."""
    rows = rows if isinstance(rows, list) else rows.tolist()
    return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"


def test_write_csv_matches_row_join(tmp_path):
    from spdcgauss.cli import _write_csv
    tables = [
        (["a", "b", "c", "d"],
         [(-0.0, 5e-324, 1e308, 3), ("", "quantity_name", 0.1, -7), (1, 2.5e-17, "", "")]),
        (["a", "b"], np.array([[-0.0, 5e-324], [1e308, 1.0 / 3.0], [np.pi, -1e-300]])),
        # an object table keeps an int column beside the floats
        (["a", "b", "c"],
         np.column_stack((np.array([[0.5, -0.0], [5e-324, 1e308]]).astype(object),
                          np.array([0, 1])))),
        (["a"], []),
        # repeated cells that compare equal but print differently: 0.0 == -0.0 == 0, 1 == 1.0
        (["a", "b", "c"], [(1.0, 1, -0.0), (0.0, 1.0, 0), (-0.0, True, 0.1), (0.1, 1.0, 1)]),
    ]
    for i, (header, rows) in enumerate(tables):
        assert _write_csv(str(tmp_path), f"t{i}.csv", header, rows, False) == f"t{i}.csv"
        with open(tmp_path / f"t{i}.csv", encoding="utf-8", newline="") as fh:
            assert fh.read() == _csv_by_row_join(header, rows)


def test_write_csv_memory_is_bounded(tmp_path):
    # the rows are formatted a chunk at a time: no whole-table text or cell tuple
    import tracemalloc
    from spdcgauss.cli import _write_csv
    rows = [(i + 0.1, i / 7.0 + 1e-3, -i * 1.1e-9) for i in range(200_000)]
    tracemalloc.start()
    try:
        _write_csv(str(tmp_path), "big.csv", ["a", "b", "c"], rows, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak
    with open(tmp_path / "big.csv", encoding="utf-8", newline="") as fh:
        assert fh.read() == _csv_by_row_join(["a", "b", "c"], rows)


# the figure grid, whose middle point is 0.0; an asymmetric one; one starting at -0.0
@pytest.mark.parametrize("lo, hi, points", [(-15.0, 15.0, 2001), (-7.3, 41.9, 1001),
                                            (-0.0, 3.0, 31)],
                         ids=["symmetric", "asymmetric", "negative-zero"])
def test_overlap_rows_equal_the_curve_at_every_point(lo, hi, points):
    # one evaluation per distinct |delta_phi| gives each point's value exactly
    from spdcgauss.cli import _overlap_rows
    from spdcgauss.curves import phi_z_curve, uniform_grid
    xis = (0.0, 1e-3, 0.5, 4.0)  # the series branch and the Faddeeva branch
    grid = uniform_grid(lo, hi, points)
    want = [(xi, d, phi_z_curve(xi)(d)) for xi in xis for d in grid]
    got = _overlap_rows(xis, lo, hi, points)
    assert [(xi, d.hex(), v.hex()) for xi, d, v in got] == \
        [(xi, d.hex(), v.hex()) for xi, d, v in want]


def test_rate_spectrum_csv_is_the_total_rate_table(tmp_path):
    from spdcgauss.cli import _write_csv
    from spdcgauss.rates import total_rate
    header = ["omega_s_rad_per_s", "spectral_density_pairs_per_rad", "delta_phi"]
    _write_csv(str(tmp_path), "table.csv", header,
               total_rate(sg.load_config(sg.builtin_config_path())).spectral_samples, False)
    assert main(["rate", "--config", sg.builtin_config_path(), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rate_spectrum.csv").read_bytes()


def test_cli_rate_warns_when_spectrum_frequencies_repeat(tmp_path, capsys):
    # beyond ~1e12 mm the +-100 delta_phi window is below the float spacing of omega_s
    cfgp = sg.builtin_config_path()
    assert main(["rate", "--config", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert "distinct" not in capsys.readouterr().out
    out = str(tmp_path / "b")
    assert main(["rate", "--config", cfgp, "--out", out,
                 "--set", "crystal.length_mm=1e13"]) == 0
    _, rows = read_csv(os.path.join(out, "rate_spectrum.csv"))
    distinct = len({r[0] for r in rows})
    assert distinct < len(rows)
    warning = [line for line in capsys.readouterr().out.splitlines() if "distinct" in line]
    assert len(warning) == 1 and warning[0].startswith("warning: ")
    assert f" {distinct} " in warning[0] and len(warning[0]) < 200


def test_cli_module_run_is_silent(tmp_path):
    proc = run_child("-m", "spdcgauss.cli", "sweep-gamma", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stderr == ""


# runs the CLI module and prints the child's own peak RSS last, where the kernel
# reports it: ru_maxrss would carry the parent's peak across exec
PEAK_RSS_CHILD = ("import os, runpy, sys\n"
                  "sys.argv[0] = 'spdc-gauss'\n"
                  "try:\n"
                  "    runpy.run_module('spdcgauss.cli', run_name='__main__')\n"
                  "finally:\n"
                  "    if os.path.exists('/proc/self/status'):\n"
                  "        with open('/proc/self/status') as fh:\n"
                  "            print(next(line for line in fh if line.startswith('VmHWM:')))\n")


@pytest.mark.parametrize("args, name", [
    (["sweep-xi", "--xi-max", "1e6", "--points", "3"], "sweep_xi.csv"),
    (["spectrum", "--xi", "1", "--dphi-min=-1e4", "--dphi-max", "1e4"],
     "spectrum_overlap.csv"),
    # overlap-limited: Xi ~ 5e299, and R_T stays finite however long the crystal
    (["rate", "--config", sg.builtin_config_path(), "--set", "crystal.length_mm=1e300"],
     "rate_report.csv"),
    (["compare-experiment", "--config", sg.builtin_config_path(),
      "--set", "crystal.length_mm=1e300"], "comparison.csv"),
])
def test_cli_extreme_inputs_bounded(tmp_path, args, name):
    proc = run_child("-c", PEAK_RSS_CHILD, *args, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    if os.path.exists("/proc/self/status"):
        *lines, peak = lines
        kind, kb, unit = peak.split()
        assert (kind, unit) == ("VmHWM:", "kB") and int(kb) / 1024.0 < 200.0
    assert max(len(line) for line in lines) < 200  # summaries print huge numbers short
    _, rows = read_csv(os.path.join(tmp_path, name))
    if name in ("rate_report.csv", "comparison.csv"):  # rows lead with a quantity name
        rows = [r[1:] for r in rows]
    values = np.array([float(v) for r in rows for v in r if v])  # "" where undefined
    assert np.all(np.isfinite(values))


def test_cli_spectrum_table_is_streamed(tmp_path):
    # 4e5 rows: holding the table before writing it peaked at ~90 MB, streaming it
    # peaks at ~34 MB
    points = 400_000
    proc = run_child("-c", PEAK_RSS_CHILD, "spectrum", "--xi", "1", "--dphi-min=-100",
                     "--dphi-max", "100", "--points", str(points), "--out", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    if os.path.exists("/proc/self/status"):
        kind, kb, unit = proc.stdout.strip().splitlines()[-1].split()
        assert (kind, unit) == ("VmHWM:", "kB") and int(kb) / 1024.0 < 60.0
    with open(tmp_path / "spectrum_overlap.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + points


@pytest.mark.parametrize("command", ["rate", "compare-experiment"])
def test_cli_reads_its_data_files_as_utf8(tmp_path, command):
    # no read of the config or the material database depends on the locale's encoding
    proc = run_child("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                     "-m", "spdcgauss.cli", command, "--config", sg.builtin_config_path(),
                     "--out", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("form", ["3m_d22", "mm2_d24", None])
def test_cli_material_db_names_its_d_eff_form(tmp_path, capsys, form):
    # a two-entry database: the shipped BBO record and a copy under another name
    doc = json.loads(resources.files("spdcgauss").joinpath("data/materials.json").read_text())
    second = dict(doc["materials"][0], name="BBO-copy", d_eff_form=form)
    if form is None:
        del second["d_eff_form"]
    doc["materials"].append(second)
    db = tmp_path / "materials.json"
    db.write_text(json.dumps(doc))

    def rate(out, *argv):
        return main(["rate", "--config", sg.builtin_config_path(), "--out", str(tmp_path / out),
                     "--material-db", str(db), *argv])

    if form == "3m_d22":
        assert rate("bbo") == 0 and rate("copy", "--set", 'crystal.material="BBO-copy"') == 0
        assert ((tmp_path / "bbo" / "rate_report.csv").read_bytes()
                == (tmp_path / "copy" / "rate_report.csv").read_bytes())
        return
    assert rate("bbo") == 2  # a record the model cannot evaluate refuses the whole database
    err = capsys.readouterr().err.splitlines()
    expect = "missing field 'd_eff_form'" if form is None else f"unknown d_eff form {form!r}"
    assert len(err) == 1 and err[0].startswith("error PARSE:")
    assert "materials[1]" in err[0] and err[0].endswith(expect)


def _shipped_bbo():
    return json.loads(resources.files("spdcgauss").joinpath("data/materials.json")
                      .read_text())["materials"][0]


# a malformed database, as a function of the shipped BBO record
MALFORMED_DBS = {
    "top-level list": lambda bbo: [bbo],
    "materials an object": lambda bbo: {"materials": {"BBO": bbo}},
    "materials a number": lambda bbo: {"materials": 5},
    "entry a string": lambda bbo: {"materials": [bbo, "BBO"]},
    "d22 a word": lambda bbo: {"materials": [dict(bbo, d22_m_per_V="large")]},
    "d22 null": lambda bbo: {"materials": [dict(bbo, d22_m_per_V=None)]},
    "d22 a bool": lambda bbo: {"materials": [dict(bbo, d22_m_per_V=True)]},
    # quoted numbers ran as numbers
    "d22 quoted": lambda bbo: {"materials": [dict(bbo, d22_m_per_V=str(bbo["d22_m_per_V"]))]},
    "coefficient quoted": lambda bbo: {"materials": [dict(bbo, ordinary=dict(
        bbo["ordinary"], coefficients=[str(bbo["ordinary"]["coefficients"][0]),
                                       *bbo["ordinary"]["coefficients"][1:]]))]},
    "range_um words": lambda bbo: {"materials": [
        dict(bbo, ordinary=dict(bbo["ordinary"], range_um=["short", "long"]))]},
    "name a number": lambda bbo: {"materials": [dict(bbo, name=7)]},
    "name a list": lambda bbo: {"materials": [bbo, dict(bbo, name=["BBO"])]},
}


@pytest.mark.parametrize("shape", MALFORMED_DBS)
def test_cli_malformed_material_db_is_a_parse_error(tmp_path, capsys, shape):
    db = tmp_path / "materials.json"
    db.write_text(json.dumps(MALFORMED_DBS[shape](_shipped_bbo())))
    assert main(["compare-experiment", "--config", sg.builtin_config_path(),
                 "--out", str(tmp_path / "o"), "--material-db", str(db)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error PARSE:"), err


def test_cli_material_db_infinite_range_bound_is_validation(tmp_path, capsys):
    # JSON reads 1e400 as inf; the window then sampled NaN wavelengths and exited 3
    text = json.dumps({"materials": [_shipped_bbo()]})
    db = tmp_path / "materials.json"
    db.write_text(text.replace('"range_um": [0.22, 1.06]', '"range_um": [0.22, 1e400]', 1))
    assert db.read_text() != text
    assert main(["compare-experiment", "--config", sg.builtin_config_path(),
                 "--out", str(tmp_path / "o"), "--material-db", str(db)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error VALIDATION:"), err


def test_cli_material_db_pole_inside_the_window_is_validation(tmp_path, capsys):
    # c2 = 0.4931 um^2 puts the ordinary pole at 702.21 nm, between the sampled
    # wavelengths; its negative n^2 there ended in a math domain error (exit 1)
    bbo = _shipped_bbo()
    bbo["ordinary"]["coefficients"][2] = 0.4931
    db = tmp_path / "materials.json"
    db.write_text(json.dumps({"materials": [bbo]}))
    for command in ("rate", "compare-experiment"):
        assert main([command, "--config", sg.builtin_config_path(),
                     "--out", str(tmp_path / command), "--material-db", str(db)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error VALIDATION: n^2(lambda) <= 1 at 702.2 nm"]


# JSON the decoder refuses: a 2 KB array nested past the recursion limit, and an
# integer of more digits than int() converts; each ended in a traceback (exit 1)
UNDECODABLE_JSON = {"nested 2000 deep": "[" * 2000 + "]" * 2000,
                    "5000-digit integer": "1" + "0" * 4999}


@pytest.mark.parametrize("shape", UNDECODABLE_JSON)
@pytest.mark.parametrize("entry", ["--config", "--material-db", "--set"])
def test_cli_undecodable_json_is_a_parse_error(tmp_path, capsys, entry, shape):
    text = UNDECODABLE_JSON[shape]
    path = tmp_path / "input.json"
    path.write_text(text if entry != "--config" else '{"pump": {"power_mw": %s}}' % text)
    source = {"--config": ["--config", str(path)],
              "--material-db": ["--config", sg.builtin_config_path(), "--material-db", str(path)],
              "--set": ["--config", sg.builtin_config_path(), "--set", "pump.power_mw=" + text]}
    assert main(["rate", *source[entry], "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error PARSE:"), err


def test_material_db_refuses_a_repeated_name(tmp_path):
    # a second BBO record would silently replace the first
    bbo = _shipped_bbo()
    db = tmp_path / "materials.json"
    db.write_text(json.dumps({"materials": [bbo, dict(bbo, d22_m_per_V=2 * bbo["d22_m_per_V"])]}))
    with pytest.raises(ParseError, match=r"materials\[1\]: material 'BBO' repeats "
                                         r".*materials\[0\]"):
        sg.load_material_db(str(db))


def test_cli_missing_config_exit_code(capsys):
    assert main(["rate"]) == 2


def test_figures_are_the_command_tables_at_their_defaults(tmp_path):
    # figures writes each dataset through its command's table function
    figures = tmp_path / "figures"
    assert main(["figures", "--out", str(figures)]) == 0
    manifest = json.loads((figures / "run_manifest.json").read_text())["parameters"]
    for command, table, figure, key in [
            ("spectrum", "spectrum_overlap.csv", "fig_longitudinal_overlap.csv",
             "longitudinal_overlap"),
            ("sweep-xi", "sweep_xi.csv", "fig_spectral_integral.csv", "spectral_integral"),
            ("sweep-gamma", "sweep_gamma.csv", "fig_waist_ratio.csv", "waist_ratio")]:
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 0
        assert (out / table).read_bytes() == (figures / figure).read_bytes()
        assert json.loads((out / "run_manifest.json").read_text())["parameters"] == manifest[key]


# ---------------------------------------------------- adversarial CLI input

ERROR_LINE = re.compile(r"error (PARSE|UNKNOWN_MATERIAL|VALIDATION|NUMERICAL|IO): ")
EXIT_CODES = {"PARSE": 2, "UNKNOWN_MATERIAL": 2, "VALIDATION": 2, "NUMERICAL": 3, "IO": 4}

# hand-kept keys the random draws add to those the shipped config reads: whole
# objects, and fields it may stop reading
OVERRIDE_KEYS = (
    "pump.wavelength_nm", "pump.power_mw", "pump.waist_um", "signal.waist_um",
    "idler.waist_um", "signal.wavelength_nm", "idler.wavelength_nm",
    "crystal.material", "crystal.length_mm", "crystal.theta_c_deg", "crystal.phi_c_deg",
    "collection.external_angle_deg", "collection.solid_angle_sr",
    "collection.pair_to_singles_ratio", "collection.decay_paths",
    "angle_convention", "polarization_assignment", "reference.xi",
    "reference.efficiency_per_mm", "pump", "crystal", "collection", "reference",
)
# JSON text of the value an override sets: non-finite, zero, extreme and
# subnormal numbers, huge integers, wrong types and removed objects
OVERRIDE_VALUES = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "0", "-0.0", "1e300", "-1e300",
                     "1e-300", "1e-320", "5e-324", "1", "-1", "2", str(10 ** 400),
                     '"BBO"', '"x"', "true", "null", "[]", "{}", "[1.0]",
                     '"internal_physics"', '"signal_extraordinary"']),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-10, max_value=100).map(str),
)
MALFORMED_ARGV = (
    [],
    ["spectrum", "--dphi-min", "-1e4"],
    ["sweep-gamma", "--points", "abc"],
    ["sweep-xi", "--points", "1.5"],
    ["rate", "--no-such-flag"],
    ["no-such-command"],
    ["figures", "--config", "x"],
    ["sweep-xi", "--set", "pump.power_mw=5"],
    ["rate", "--angle-convention", "sideways"],
    ["spectrum", "--xi", "1,,2"],
    ["spectrum", "--set", "pump.power_mw=5"],
    ["spectrum", "--config", "x"],
    ["rate", "--config", "no\nsuch.json"],
)


FLAG_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1e300", "-1e300", "1e-300", "5e-324"]),
    st.floats().map(repr),
)
SWEEP_FLAGS = {"spectrum": ("--dphi-min", "--dphi-max"),
               "sweep-xi": ("--xi-min", "--xi-max"),
               "sweep-gamma": ("--gamma-min", "--gamma-max")}


@functools.cache
def _shipped_reads():
    """The shipped config's JSON and the paths of its leaves: the fields
    ``config_from_dict`` reads on it, since it refuses any key it does not read."""
    with open(sg.builtin_config_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    read = {top for top, value in raw.items() if not isinstance(value, dict)}
    read |= {f"{top}.{key}" for top, value in raw.items() if isinstance(value, dict)
             for key in value}
    return raw, frozenset(read)


def _override_keys():
    """Keys of the random draws: each field the shipped config sets, so a field added
    to it joins by itself, then each ``OVERRIDE_KEYS`` entry it does not set."""
    read = _shipped_reads()[1]
    return tuple(sorted(read)) + tuple(key for key in OVERRIDE_KEYS if key not in read)


@st.composite
def adversarial_argv(draw, out):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(MALFORMED_ARGV))
    if kind == 1:  # a sweep over random bounds, few points
        command = draw(st.sampled_from(sorted(SWEEP_FLAGS)))
        argv = [command, "--out", out, "--force", "--points", str(draw(st.integers(-1, 9)))]
        return argv + [f"{flag}={draw(FLAG_NUMBERS)}" for flag in SWEEP_FLAGS[command]]
    command = draw(st.sampled_from(["rate", "compare-experiment"]))
    argv = [command, "--config", sg.builtin_config_path(), "--out", out, "--force"]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(_override_keys()))
        argv += ["--set", f"{key}={draw(OVERRIDE_VALUES)}"]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_adversarial_inputs_keep_the_error_contract(tmp_path_factory, data):
    argv = data.draw(adversarial_argv(str(tmp_path_factory.getbasetemp() / "adversarial")))
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            code = main(argv)
    except BaseException as exc:  # SystemExit included: main must return the code
        raise AssertionError(f"{argv}: {type(exc).__name__}: {exc}") from None
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), (argv, err)
        match = ERROR_LINE.match(lines[0])
        assert match and EXIT_CODES[match.group(1)] == code, (argv, code, err)


def _ladder_keys():
    """Override keys of the fixed ladder: each field the shipped config sets whose
    value there is not a string or an object (the three waists as one tied key), then
    each ``OVERRIDE_KEYS`` entry it does not set."""
    raw, read = _shipped_reads()

    def shipped(path):
        head, _, leaf = path.rpartition(".")
        return (raw.get(head, {}) if head else raw).get(leaf)

    waists = ("pump.waist_um", "signal.waist_um", "idler.waist_um")
    keys = [(key,) for key in sorted(read)
            if key not in waists and not isinstance(shipped(key), (str, dict))]
    return [waists] + keys + [(key,) for key in OVERRIDE_KEYS if key not in read]


LADDER_VALUES = ("0", "-1", "5e-324", "1e-320", "1e-300", "1e-30", "1e30", "1e300", "1e400")


def _numeric_cells(path):
    _, rows = read_csv(path)
    for row in rows:
        for cell in row:
            try:
                yield row[0], float(cell)
            except ValueError:  # a quantity name, or "" for an absent value
                pass


def _ladder_run(argv):
    """``main(argv)``'s exit code, checked: 0 with nothing on stderr, or 2 or 3 with one
    stderr line whose label carries that code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), (argv, err)
        match = ERROR_LINE.match(lines[0])
        assert match and EXIT_CODES[match.group(1)] == code, (argv, code, err)
    return code


def test_cli_field_ladder_exit_0_reports_only_normal_finite_numbers(tmp_path):
    # every numeric field at each rung of a fixed ladder: a refusal is one stderr line,
    # and an exit 0 writes no overflowed, NaN or subnormal (underflowed) number
    keys = _ladder_keys()
    assert ("reference.predicted_observable_per_mw_s",) in keys and ("crystal",) in keys
    for command, tables in (("rate", ("rate_report.csv",)),
                            ("compare-experiment", ("comparison.csv",))):
        out = tmp_path / command
        for fields in keys:
            for value in LADDER_VALUES:
                argv = [command, "--config", sg.builtin_config_path(), "--out", str(out),
                        "--force"]
                for key in fields:
                    argv += ["--set", f"{key}={value}"]
                if _ladder_run(argv) != 0:
                    continue
                for table in tables:
                    for quantity, number in _numeric_cells(out / table):
                        assert math.isfinite(number) and (
                            number == 0.0 or abs(number) >= sys.float_info.min), \
                            (argv, table, quantity, number)


def test_cli_table_flag_ladder_exit_0_writes_only_finite_cells(tmp_path):
    # each grid flag of the table commands, and spectrum's --xi, at each rung of the ladder
    # and at the float maximum: a refusal is one stderr line, and an exit 0 writes only
    # finite cells (a table may write a subnormal S or Phi_z; rate and compare refuse one)
    for command, table in (("spectrum", "spectrum_overlap.csv"), ("sweep-xi", "sweep_xi.csv"),
                           ("sweep-gamma", "sweep_gamma.csv")):
        out = tmp_path / command
        flags = SWEEP_FLAGS[command] + (("--xi",) if command == "spectrum" else ())
        for flag in flags:
            for value in (*LADDER_VALUES, repr(sys.float_info.max)):
                argv = [command, "--out", str(out), "--force", "--points", "5", f"{flag}={value}"]
                if _ladder_run(argv) == 0:
                    for _, number in _numeric_cells(out / table):
                        assert math.isfinite(number), (argv, table, number)
