import math
import sys

import numpy as np
import pytest

import spdcgauss as sg
from conftest import make_config, thin_crystal_rates
from spdcgauss.config import SourceConfig
from spdcgauss.constants import HBAR
from spdcgauss.curves import gamma_sweep, optimal_gamma, phi_z_thin, waist_scaling
from spdcgauss.errors import (
    ComputationError,
    DegenerateDispersion,
    UnequalWaists,
    ValidationError,
)
from spdcgauss.rates import (
    SPECTRAL_POINTS,
    SPECTRAL_SPAN_DPHI,
    RateReport,
    _delta_k_z,
    closed_form_report,
    comparison_rows,
    experiment_comparison,
    pump_amplitude_sq,
    total_rate,
)

# frozen from an independent constants-arithmetic script run before the
# main build (CODATA 2018 values)
PUMP_AMP_SQ_10MW = 417906821.25037545
R_T_BBO = 2452.825748090812
OBSERVABLE_BBO = 1128.2998441217735
EFF_MM_BBO = 2.194756919532647e-12
EFF_MM_SR_BBO = 6.650778544038323e-08


def test_pump_amplitude_examples():
    base = pump_amplitude_sq(10e-3, 82e-6, 1.707)
    assert base == pytest.approx(PUMP_AMP_SQ_10MW, rel=1e-12)
    assert pump_amplitude_sq(20e-3, 82e-6, 1.707) == pytest.approx(2 * base, rel=1e-14)
    assert pump_amplitude_sq(10e-3, 164e-6, 1.707) == pytest.approx(base / 4, rel=1e-14)


def test_total_rate_bbo_example():
    report = total_rate(make_config())
    assert report.Xi == pytest.approx(0.9326706190257006, rel=1e-12)
    assert report.R_T == pytest.approx(R_T_BBO, rel=1e-6)
    # Parseval closed form at the config's own walk-off value
    assert report.S == pytest.approx(1.979668634356924, abs=1e-6)


def test_total_rate_scaling_power():
    r1 = total_rate(make_config(power_mw=1.0)).R_T
    r2 = total_rate(make_config(power_mw=2.0)).R_T
    assert r2 / r1 == pytest.approx(2.0, abs=1e-9)


def test_total_rate_scaling_nonlinearity():
    r1 = total_rate(make_config()).R_T
    r4 = total_rate(make_config(d22_scale=2.0)).R_T
    assert r4 / r1 == pytest.approx(4.0, abs=1e-9)


def test_total_rate_scaling_length_thin_regime():
    r1 = total_rate(make_config(theta_deg=0.0, length_mm=2.0)).R_T
    r2 = total_rate(make_config(theta_deg=0.0, length_mm=4.0)).R_T
    assert r2 / r1 == pytest.approx(2.0, abs=1e-9)


def test_total_rate_scaling_mode_area():
    r1 = total_rate(make_config(theta_deg=0.0, waist_um=82.0)).R_T
    r2 = total_rate(make_config(theta_deg=0.0, waist_um=82.0 * math.sqrt(2))).R_T
    assert r2 / r1 == pytest.approx(0.5, abs=1e-9)


def test_collinear_beats_non_collinear():
    r0 = total_rate(make_config(theta_deg=0.0)).R_T
    for th in (1.0, 2.0, 3.0, 4.0, 5.0):
        assert total_rate(make_config(theta_deg=th)).R_T < r0


def test_unequal_waists_rejected():
    cfg = make_config()
    bad = cfg._replace(signal=cfg.signal._replace(waist_w=60e-6))
    with pytest.raises(UnequalWaists):
        total_rate(bad)
    with pytest.raises(UnequalWaists):
        closed_form_report(bad)


@pytest.mark.parametrize("power", [math.inf, math.nan, 0.0])
def test_source_config_rejects_bad_power(power):
    with pytest.raises(ValidationError, match="pump_power"):
        make_config()._replace(pump_power_p=power)


@pytest.mark.parametrize("paths", [-1, 0, 2.5, True])
def test_source_config_rejects_bad_decay_paths(paths):
    with pytest.raises(ValidationError, match="collection.decay_paths"):
        make_config()._replace(decay_path_multiplicity=paths)


def test_spectral_samples_integrate_to_total():
    report = total_rate(make_config())
    assert isinstance(report.spectral_samples, np.ndarray)
    assert report.spectral_samples.shape == (SPECTRAL_POINTS, 3)
    omega, dens, dphi = report.spectral_samples.T
    integral = np.trapezoid(dens, omega)
    assert integral == pytest.approx(report.R_T, rel=0.05)
    # delta_phi runs from -span to +span about the phase-matched point
    assert dphi[[0, -1]] == pytest.approx([-SPECTRAL_SPAN_DPHI, SPECTRAL_SPAN_DPHI], rel=1e-9)


def test_spectral_density_thin_crystal_consistency():
    """Exact density / thin-crystal closed form = omega_s*omega_i/(wp^2/4)
    on every sampled row (both vanish together at the sinc zeros)."""
    cfg = make_config(theta_deg=0.0)
    density, _ = thin_crystal_rates(cfg)
    wp = cfg.pump.omega
    rows = total_rate(cfg).spectral_samples.tolist()
    top = max(exact for _, exact, _ in rows)
    for ws, exact, _ in rows:
        thin = density(ws)
        expected = ws * (wp - ws) / (wp * wp / 4.0)
        assert exact == pytest.approx(thin * expected, rel=1e-6, abs=1e-12 * top)


def test_spectral_density_sinc_zeros_and_peak():
    # collinear: density / (omega_s omega_i) is sinc^2 of the delta_phi column
    cfg = make_config(theta_deg=0.0)
    wp = cfg.pump.omega
    omega, dens, dphi = total_rate(cfg).spectral_samples.T
    shape = dens / (omega * (wp - omega))
    peak = int(np.argmax(shape))
    assert peak == SPECTRAL_POINTS // 2 and dphi[peak] == pytest.approx(0.0, abs=1e-6)
    sinc2 = np.array([phi_z_thin(d) ** 2 for d in dphi.tolist()])
    np.testing.assert_allclose(shape / shape[peak], sinc2 / sinc2[peak], rtol=1e-9, atol=1e-13)
    for m in (-3, -2, -1, 1, 2, 3):
        # the row nearest a sinc zero lies within half a row spacing (0.05) of it
        assert shape[np.argmin(np.abs(dphi - m * math.pi))] < 3e-4 * shape[peak]


def test_thin_crystal_rate_linearity():
    def r_thin(**kwargs):
        return closed_form_report(make_config(theta_deg=0.0, **kwargs)).R_T_thin

    r1 = r_thin(power_mw=1.0)
    assert r_thin(power_mw=2.0) / r1 == pytest.approx(2.0, abs=1e-12)
    assert r_thin(length_mm=4.0) / r1 == pytest.approx(2.0, abs=1e-12)


def test_thin_crystal_requires_collinear_type_ii():
    assert closed_form_report(make_config(theta_deg=3.1)).R_T_thin is None
    # collinear type I (n_s = n_i): the dispersion factor vanishes
    with pytest.raises(DegenerateDispersion):
        total_rate(make_config(theta_deg=0.0, n_s=1.62, n_i=1.62))


def test_collinear_limit_consistency():
    """eq. for the matched geometry reduces to the thin-crystal closed
    form as the collection angle goes to zero."""
    _, r_thin = thin_crystal_rates(make_config(theta_deg=0.0))
    r_small = total_rate(make_config(theta_deg=0.1)).R_T
    assert r_small == pytest.approx(r_thin, rel=0.01)


def test_report_populates_thin_rate_when_collinear():
    report = total_rate(make_config(theta_deg=0.0))
    assert report.R_T_thin is not None
    assert report.R_T == report.R_T_thin
    # the general form at theta = 0 is the paper's thin-crystal closed form
    _, r_thin = thin_crystal_rates(make_config(theta_deg=0.0))
    assert report.R_T_thin == pytest.approx(r_thin, rel=1e-12)
    assert total_rate(make_config(theta_deg=3.1)).R_T_thin is None


def test_efficiency_definition():
    # the efficiencies are the comparison's, in the thin-crystal normalization:
    # paths x R_T_thin hbar omega_p / (P l_mm), and that per sr; the rate carries none
    assert RateReport._fields == ("Xi", "S", "R_T", "R_T_thin", "spectral_samples", "warnings")
    cfg = make_config()
    _, r_thin = thin_crystal_rates(make_config(theta_deg=0.0))
    by_name = {r.quantity: r.model for r in comparison_rows(cfg, closed_form_report(cfg))}
    expected = (cfg.decay_path_multiplicity * r_thin * HBAR * cfg.pump.omega
                / (cfg.pump_power_p * 2.0))  # 2 mm
    assert by_name["efficiency_per_mm"] == pytest.approx(expected, rel=1e-12)
    assert by_name["efficiency_per_mm_sr"] == pytest.approx(
        expected / cfg.collection_solid_angle_sr, rel=1e-12)


def test_waist_scaling_examples():
    w = 70e-6
    assert waist_scaling(w, w, w) == pytest.approx(1.0 / (9 * w * w), rel=1e-12)
    a = waist_scaling(30e-6, 50e-6, 80e-6)
    assert waist_scaling(80e-6, 30e-6, 50e-6) == pytest.approx(a, rel=1e-12)
    assert waist_scaling(50e-6, 80e-6, 30e-6) == pytest.approx(a, rel=1e-12)
    # pump re-expressed as gamma * W: proportional to 1/(W^2 (1/g + 2g)^2)
    gamma, W = 0.63, 45e-6
    expected = 1.0 / (W * W * (1.0 / gamma + 2.0 * gamma) ** 2)
    assert waist_scaling(gamma * W, W, W) == pytest.approx(expected, rel=1e-12)


def test_optimal_gamma():
    got = optimal_gamma()
    assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    # brute-force grid oracle
    g = np.linspace(0.05, 5.0, 1_000_001)
    rate = 1.0 / (1.0 / g + 2.0 * g) ** 2
    assert got == pytest.approx(g[np.argmax(rate)], abs=1e-5)


def test_gamma_sweep_shape():
    sweep = gamma_sweep(0.1, 3.0, 581)
    assert np.shape(sweep) == (581, 2)
    gammas, values = np.array(sweep).T
    assert values.max() == 1.0
    idx_max = int(np.argmax(values))
    assert gammas[idx_max] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.006)
    idx_one = int(np.argmin(np.abs(gammas - 1.0)))
    assert values[idx_one] == pytest.approx(8.0 / 9.0, abs=1e-3)
    # invariance under gamma -> 1/(2 gamma): 0.2 and 2.5 are both on-grid
    i, j = 20, 480
    assert gammas[i] == pytest.approx(0.2, abs=1e-12)
    assert gammas[j] == pytest.approx(2.5, abs=1e-12)
    assert values[i] == pytest.approx(values[j], rel=1e-9)


def test_gamma_sweep_validation():
    with pytest.raises(ValidationError):
        gamma_sweep(0.0, 3.0, 10)
    with pytest.raises(ValidationError):
        gamma_sweep(0.5, 3.0, 1)


def test_experiment_comparison_values():
    rows, report = experiment_comparison(make_config())
    by_name = {r.quantity: r for r in rows}
    assert by_name["observable_pairs_per_mW_s"].model == pytest.approx(
        OBSERVABLE_BBO, rel=1e-6)
    assert by_name["efficiency_per_mm"].model == pytest.approx(EFF_MM_BBO, rel=1e-9)
    assert by_name["efficiency_per_mm_sr"].model == pytest.approx(
        EFF_MM_SR_BBO, rel=1e-9)
    assert report.warnings  # paper angle convention is flagged


def test_records_check_their_fields_and_are_immutable_tuples():
    cfg = make_config()
    report = closed_form_report(cfg)
    geom = sg.modes.geometry_coefficients(cfg.pump, cfg.signal, cfg.idler,
                                          cfg.crystal.length_l)
    # _replace builds its result through the constructor and its checks
    for record, change, message in [
        (cfg, {"pump_power_p": -1.0}, "pump_power"),
        (cfg.signal, {"waist_w": 0.0}, "signal.waist"),
        (geom, {"C": 0.0}, "A >= C > 0"),
        (cfg.crystal, {"length_l": math.inf}, "crystal length_l"),
        (cfg.crystal.ordinary, {"valid_range_m": (1e-6, 1e-7)}, "valid_range"),
        (report, {"R_T": -1.0}, "rates must be >= 0"),
    ]:
        with pytest.raises(ValidationError, match=message):
            record._replace(**change)
    records = [cfg, cfg.pump, geom, cfg.crystal, cfg.crystal.ordinary, report,
               sg.load_material_db()["BBO"], comparison_rows(cfg, report)[0]]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "x"
        # keyword and positional construction agree
        by_name = type(record)(**record._asdict())
        assert type(by_name) is type(record)
        assert by_name == type(record)(*record) == record
    # each config built without reference values gets a dict of its own
    first = SourceConfig(*cfg[:7])
    second = SourceConfig(*cfg[:6], angle_convention=cfg.angle_convention)
    assert first.reference_values == second.reference_values == {}
    assert first.reference_values is not second.reference_values


def test_experiment_comparison_requires_ratio():
    cfg = make_config()._replace(pair_to_singles_ratio=None)
    with pytest.raises(ValidationError):
        experiment_comparison(cfg)


# the shipped source, collinear, Snell-refracted, and so long that sampled frequencies repeat
COMPARED_SOURCES = ([], ["collection.external_angle_deg=0"], ["angle_convention=internal_physics"],
                    ["crystal.length_mm=1e13"])


@pytest.mark.parametrize("overrides", COMPARED_SOURCES)
def test_closed_form_comparison_matches_experiment_comparison(overrides):
    cfg = sg.load_config(sg.builtin_config_path(), overrides=overrides)
    rows, report = experiment_comparison(cfg)
    closed = closed_form_report(cfg)
    assert comparison_rows(cfg, closed) == rows
    assert closed.spectral_samples is None
    assert report.spectral_samples.shape == (SPECTRAL_POINTS, 3)
    assert report._replace(spectral_samples=None, warnings=[]) == closed._replace(warnings=[])
    # the sampled spectrum adds only its repeated-frequency warning
    assert [w for w in report.warnings if "distinct" not in w] == closed.warnings


# crystal.theta_c_deg (or length_mm) -> delta_phi at omega_p/2, phase-matched omega_s over
# omega_p/2, R_T in pairs/s, and whether the degeneracy warning is expected; a longer
# crystal scales delta_phi but moves neither the matched point nor the closed form's error
DEGENERACY_CASES = [
    ([], -25.81, 1.041, 2452.8, False),
    (["crystal.theta_c_deg=45"], -127.1, 1.232, 3991.2, True),
    (["crystal.theta_c_deg=60"], 176.7, 0.7792, 709.0, True),
    (["crystal.length_mm=10"], -129.0, 1.041, 2615.3, False),
]


@pytest.mark.parametrize("overrides, dphi, ratio, r_t, warns", DEGENERACY_CASES)
def test_degeneracy_warning(overrides, dphi, ratio, r_t, warns):
    cfg = sg.load_config(sg.builtin_config_path(), overrides=overrides)
    half = cfg.pump.omega / 2
    assert _delta_k_z(cfg, half) * cfg.crystal.length_l / 2 == pytest.approx(dphi, rel=1e-3)
    report = total_rate(cfg)
    omega, _, matched = report.spectral_samples[SPECTRAL_POINTS // 2]
    assert matched == pytest.approx(0.0, abs=1e-6)
    assert omega / half == pytest.approx(ratio, rel=1e-3)
    assert report.R_T == pytest.approx(r_t, rel=1e-3)
    flagged = [w for w in report.warnings if "from degeneracy" in w]
    assert len(flagged) == warns
    assert [w for w in closed_form_report(cfg).warnings if "from degeneracy" in w] == flagged


def test_gamma_sweep_matches_array_formula():
    # the array evaluation it replaced, waist_scaling(g, 1.0, 1.0) operation by operation
    g = np.linspace(0.1, 3.0, 581)
    wp2 = g ** 2
    s = 1.0 / wp2 + 1.0 + 1.0
    y = 1.0 / (wp2 * 1.0 * 1.0 * s * s)
    assert gamma_sweep(0.1, 3.0, 581) == np.column_stack((g, y / y.max())).tolist()


def test_waist_scaling_beyond_float_range_raises():
    # too large or too small: a square or product that overflows, one that underflows
    # to 0 (a division by zero), and an inf * 0 that makes nan
    for waists in ((1e-160, 1.0, 1.0), (1e200, 1.0, 1.0), (1e-170, 1.0, 1.0),
                   (1e-300, 1.0, 1.0), (1e-100, 1e-100, 1e-100), (1e200, 1e200, 1e200)):
        with pytest.raises(OverflowError, match=r"waist_scaling\(.*\) leaves the float range"):
            waist_scaling(*waists)


def test_comparison_rows_warns_of_walk_off_once():
    # each call appended the warning again
    cfg = sg.load_config(sg.builtin_config_path(), overrides=["angle_convention=internal_physics"])
    report = closed_form_report(cfg)
    first = comparison_rows(cfg, report)
    assert comparison_rows(cfg, report) == first
    assert sum("walk-off parameter" in w for w in report.warnings) == 1


# pump powers (mW) and crystal lengths (mm) whose 4 d^2 P l falls below the smallest
# normal float (R_T lost digits or read 0), or whose comparison efficiency's
# rate hbar omega_p does
UNDERFLOWING_SOURCES = [
    ({"power_mw": 1e-278}, "rate hbar omega_p"),
    ({"power_mw": 1e-280}, "4 d_eff"),
    ({"power_mw": 1e-290}, "4 d_eff"),
    ({"power_mw": 1e-297}, "4 d_eff"),
    ({"power_mw": 1e-320}, "4 d_eff"),
    ({"length_mm": 1e-300}, "4 d_eff"),
]


@pytest.mark.parametrize("source, product", UNDERFLOWING_SOURCES,
                         ids=["P=1e-278", "P=1e-280", "P=1e-290", "P=1e-297", "P=1e-320",
                              "l=1e-300"])
def test_underflowing_rate_is_refused(source, product):
    cfg = make_config(theta_deg=0.0, **source)
    if product == "rate hbar omega_p":
        # R_T ~ 2.45e-275 pairs/s is normal: only the comparison's efficiency refuses
        report = closed_form_report(cfg)
        assert report.R_T >= sys.float_info.min and report.R_T == report.R_T_thin
    else:
        with pytest.raises(ComputationError, match=f"{product}.* underflows the float range"):
            closed_form_report(cfg)
        report = closed_form_report(make_config(theta_deg=0.0))
    with pytest.raises(ComputationError, match=f"{product}.* underflows the float range"):
        comparison_rows(cfg, report)


def test_vanishing_d_eff_is_a_zero_rate_at_any_power():
    # the underflow guard holds only where d_eff != 0: d_eff = 0 is a true zero rate
    cfg = make_config(power_mw=1e-320, d22_scale=0.0)
    report = closed_form_report(cfg)
    by_name = {r.quantity: r.model for r in comparison_rows(cfg, report)}
    assert report.R_T == by_name["efficiency_per_mm"] == 0.0
    assert any("d_eff" in w for w in report.warnings)

