"""Absolute emission rates: pump amplitude from power, spectral density,
total pair rate for matched non-collinear geometry (with the thin-crystal
rate as its collinear value) and the comparison with reference values,
efficiency figures included.

Everything is evaluated at fixed nominal refractive indices (taken at
the pump and degenerate daughter wavelengths) -- the indices sit outside
the spectral integral in this model.  Transverse phase matching is taken
as perfect (delta_k_y = 0) throughout the rate expressions.  RateReport is a
named tuple that checks its fields when built, by ``_replace`` too.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import materials, modes
from .config import AngleConvention, SourceConfig
from .constants import C_LIGHT, EPSILON_0, HBAR
from .curves import spectral_integral_S
from .errors import ComputationError, UnequalWaists, ValidationError
from .materials import dispersion_factor
from .modes import geometry_coefficients

__all__ = ["RateReport", "ComparisonRow", "pump_amplitude_sq", "closed_form_report", "total_rate",
           "comparison_rows", "experiment_comparison"]

# total_rate samples the spectrum at this many signal frequencies,
# spanning delta_phi in [-span, span] about the phase-matched point
SPECTRAL_POINTS = 2001
SPECTRAL_SPAN_DPHI = 100.0
# closed_form_report warns when the phase-matched signal frequency is further than
# this fraction of omega_p/2 from degeneracy: the closed form's omega_s omega_i =
# omega_p^2/4 then overstates the rate there by 1/(1 - offset^2), over 1 %
DEGENERACY_OFFSET_MAX = 0.1


class RateReport(namedtuple("RateReport", "Xi S R_T R_T_thin spectral_samples warnings")):
    """Computed quantities with units.

    R_T and R_T_thin are pairs/s into the two collection modes (R_T_thin,
    the thin-crystal rate, only for collinear collection, else None);
    spectral_samples is a (SPECTRAL_POINTS, 3) float ndarray whose columns
    are omega_s [rad/s], dR/domega_s [pairs s/rad /s] and the phase
    mismatch delta_phi = delta_k_z l/2 from :func:`total_rate`, and None
    from :func:`closed_form_report`.  The conversion efficiencies are not
    here: :func:`comparison_rows` quotes them in the thin-crystal
    normalization, the one in which "per mm" is well defined.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.R_T < 0 or (self.R_T_thin is not None and self.R_T_thin < 0):
            raise ValidationError("rates must be >= 0")
        if not (0.0 < self.S <= math.pi + 1e-6):  # float headroom at the S=pi anchor
            raise ValidationError(f"S = {self.S} outside (0, pi]")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def pump_amplitude_sq(power_p: float, waist_wp: float, n_p: float) -> float:
    """Squared pump field amplitude |E_p0|^2 = (2/(pi Wp^2)) * 2P/(eps0 n_p c),
    in V^2/m^2, for a monochromatic Gaussian pump carrying power P."""
    if not (power_p > 0 and waist_wp > 0 and n_p >= 1):
        raise ValidationError("require P > 0, Wp > 0, n_p >= 1")
    alpha_sq = 2.0 / (math.pi * waist_wp * waist_wp)
    return alpha_sq * 2.0 * power_p / (EPSILON_0 * n_p * C_LIGHT)


def _density_prefactor(config: SourceConfig) -> float:
    """[d alpha_s alpha_i E_p0 / c]^2 / (2 pi n_s n_i), without the
    omega_s*omega_i and Phi^2 factors."""
    alpha_s = modes.normalization_alpha(config.signal.waist_w)
    alpha_i = modes.normalization_alpha(config.idler.waist_w)
    ep_sq = pump_amplitude_sq(config.pump_power_p, config.pump.waist_w, config.pump.n)
    d = config.d_eff
    prefactor = (d * d * alpha_s ** 2 * alpha_i ** 2 * ep_sq / C_LIGHT ** 2
                 / (2.0 * math.pi * config.signal.n * config.idler.n))
    if not math.isfinite(prefactor):
        raise ComputationError(f"spectral density prefactor {prefactor} is beyond the float range")
    return prefactor


def _delta_k_z(config: SourceConfig, omega_s):
    """delta_k_z at a signal frequency or an array of them; times l/2 it is
    delta_phi (K = delta_k_z under perfect transverse matching)."""
    return materials.delta_k_z(config.signal.n, config.idler.n, config.pump.n,
                               omega_s, config.pump.omega,
                               config.signal.theta, config.idler.theta)


def _sample_range(config: SourceConfig, disp: float):
    """``(lo, hi, center)``: the first and last signal frequency of the
    sampled spectrum, delta_phi in [-SPECTRAL_SPAN_DPHI, SPECTRAL_SPAN_DPHI]
    about the phase-matched point ``center`` (the spectral weight |Phi_z|^2
    lives there), clipped to [1e-6, 1 - 1e-6] omega_p; ``disp`` is the
    dispersion factor, so d(delta_phi)/d(omega_s) = -disp l/2.  Refuses a
    crystal so short that this slope underflows, a range beyond the float
    range, and a range outside (0, omega_p): a source phase-matched far from
    degeneracy.
    """
    omega_p = config.pump.omega
    l = config.crystal.length_l
    slope = -disp * l / 2.0
    if slope == 0.0:  # a vanishing disp is refused before, so l underflowed
        raise ValidationError(f"crystal.length {l:g} m is too short to sample the spectrum")
    center = omega_p / 2.0 - _delta_k_z(config, omega_p / 2) * l / 2.0 / slope
    half = SPECTRAL_SPAN_DPHI / abs(slope)
    lo = max(center - half, 1e-6 * omega_p)
    hi = min(center + half, (1 - 1e-6) * omega_p)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OverflowError(f"the sampled signal frequencies [{lo}, {hi}] leave the float range")
    if lo >= omega_p or hi <= 0.0:  # the grid runs from lo to hi
        raise ValidationError("omega_s must lie strictly inside (0, omega_p)")
    return lo, hi, center


def _product(config: SourceConfig, what: str, *factors) -> float:
    """The left-to-right product of ``factors``.  Where d_eff != 0, refuses a
    partial product below the smallest normal float: its digits, or all of it,
    were lost to underflow, and a rate or efficiency would read short or 0."""
    product = 1.0
    for factor in factors:
        product *= factor
        if not abs(product) >= sys.float_info.min and config.d_eff != 0.0:
            raise ComputationError(f"{what} = {product!r} underflows the float range")
    return product


def _pair_rate(config: SourceConfig, S: float, angular: float, dn: float) -> float:
    """The closed-form R_T of :func:`total_rate` for spectral integral
    ``S``, angular factor ``1 + cos^2 th_i + cos^2 th_s`` and
    ``dn = |n_i cos th_i - n_s cos th_s|``; refuses a rate beyond the
    float range, and one whose 4 d^2 P l underflows."""
    omega_p = config.pump.omega
    d = config.d_eff
    wp = config.pump.waist_w
    n_p, n_s, n_i = config.pump.n, config.signal.n, config.idler.n
    lead = _product(config, "4 d_eff^2 P l", 4.0, d, d, config.pump_power_p,
                    config.crystal.length_l)
    rate = (lead * omega_p ** 2 * S
            / (3.0 * math.pi * n_p * n_s * n_i * EPSILON_0 * C_LIGHT ** 2
               * (math.pi * wp * wp) * angular * dn))
    if not math.isfinite(rate):
        raise ComputationError(f"pair rate {rate} pairs/s is beyond the float range")
    return rate


def _thin_rate(config: SourceConfig) -> float:
    """Thin-crystal total rate, R_T at theta = 0 (S = pi, angular factor 3):

        R_T = 4 d^2 P l w_p^2 / (9 n_s n_i n_p eps0 (pi Wp^2) |n_i - n_s| c^2)
    """
    disp = dispersion_factor(config.signal.n, config.idler.n, 0.0, 0.0)
    return _pair_rate(config, math.pi, 3.0, abs(disp) * C_LIGHT)


def _require_equal_waists(config: SourceConfig):
    wp, ws, wi = config.pump.waist_w, config.signal.waist_w, config.idler.waist_w
    if not (math.isclose(wp, ws, rel_tol=1e-12) and math.isclose(wp, wi, rel_tol=1e-12)):
        raise UnequalWaists("the closed-form rates require Wp = Ws = Wi; "
                            "use waist_scaling for the general waist dependence")


def _efficiencies(config: SourceConfig, rate: float):
    """``rate`` (the comparison's paths x R_T_thin) in pairs per pump photon
    per mm of crystal, and that per sr of collection solid angle (None when
    the config gives none); refuses an efficiency beyond the float range, one
    whose rate hbar omega_p underflows, and one below the smallest normal
    float."""
    length_mm = config.crystal.length_l * 1e3
    eff_mm = (_product(config, "rate hbar omega_p", rate, HBAR, config.pump.omega)
              / (config.pump_power_p * length_mm))
    _product(config, "efficiency per mm", eff_mm)
    if config.collection_solid_angle_sr is None:
        return eff_mm, None
    eff_mm_sr = eff_mm / config.collection_solid_angle_sr
    if not math.isfinite(eff_mm_sr):
        raise ComputationError(f"efficiency {eff_mm_sr} pairs per pump photon per mm sr "
                               "is beyond the float range")
    _product(config, "efficiency per mm sr", eff_mm_sr)
    return eff_mm, eff_mm_sr


def closed_form_report(config: SourceConfig) -> RateReport:
    """The closed forms of :func:`total_rate`, without loading numpy: a
    :class:`RateReport` whose ``spectral_samples`` is None.  The total
    pair rate for the matched non-collinear geometry is

        R_T = 4 d^2 P l w_p^2 S(Xi)
              / (3 pi n_p n_s n_i eps0 c^2 (pi Wp^2)
                 (1 + cos^2 th_i + cos^2 th_s) |n_i cos th_i - n_s cos th_s|)

    valid for equal waists, matched target angles and degenerate
    operation (omega_s omega_i is approximated by omega_p^2/4, as in the
    derivation of the closed form): it warns when the phase-matched signal
    frequency lies more than DEGENERACY_OFFSET_MAX x omega_p/2 from omega_p/2.  It
    refuses the sources whose spectrum :func:`total_rate` cannot sample.
    """
    return _closed_form(config)[0]


def _closed_form(config: SourceConfig):
    """``(report, geom, (lo, hi))``: :func:`closed_form_report`, with the geometry
    and the sampled signal-frequency range it computed on the way."""
    warnings: list[str] = []
    _require_equal_waists(config)
    ths, thi = config.signal.theta, config.idler.theta
    if abs(ths - thi) > 1e-9:
        warnings.append(
            f"target angles differ (theta_s={math.degrees(ths):.4f} deg, "
            f"theta_i={math.degrees(thi):.4f} deg); the closed form assumes "
            "matched collection angles"
        )
    if config.angle_convention is AngleConvention.PAPER_EXTERNAL_AS_INTERNAL:
        warnings.append(
            "angle convention 'paper_external_as_internal': external angle "
            "inserted directly into the crystal-frame geometry (no Snell "
            "refraction applied)"
        )
    if abs(config.d_eff) <= 1e-3 * abs(config.crystal.d22_m_per_v):
        warnings.append(
            f"d_eff = {config.d_eff:.3g} m/V is below 1e-3 |d22|: the rates nearly vanish"
        )

    geom = geometry_coefficients(config.pump, config.signal, config.idler,
                                 config.crystal.length_l)
    S = spectral_integral_S(geom.Xi)
    disp = dispersion_factor(config.signal.n, config.idler.n, ths, thi)
    # refuses what total_rate's spectrum cannot sample, a crystal too short for it first
    lo, hi, center = _sample_range(config, disp)
    if disp < 0:
        warnings.append(
            "(n_i cos th_i - n_s cos th_s) is negative; the rate uses its "
            "magnitude (sign only reflects the signal/idler labels)"
        )
    angular = 1.0 + math.cos(thi) ** 2 + math.cos(ths) ** 2
    r_t = _pair_rate(config, S, angular, abs(disp) * C_LIGHT)
    # at theta = 0, S = pi and the angular factor is 3: R_T is the thin rate
    r_thin = r_t if ths == 0.0 and thi == 0.0 else None
    offset = center / (config.pump.omega / 2.0) - 1.0
    if abs(offset) > DEGENERACY_OFFSET_MAX:
        warnings.append(
            f"phase-matched at a signal wavelength of {2e9 * math.pi * C_LIGHT / center:.1f} nm, "
            f"{100 * offset:+.3g}% in frequency from degeneracy at "
            f"{2e9 * config.pump.lambda_vac:.1f} nm; the closed form assumes near-degenerate "
            "operation"
        )
    return (RateReport(Xi=geom.Xi, S=S, R_T=r_t, R_T_thin=r_thin,
                       spectral_samples=None, warnings=warnings), geom, (lo, hi))


def total_rate(config: SourceConfig) -> RateReport:
    """:func:`closed_form_report` with the sampled spectrum: omega_s,
    dR/domega_s and delta_phi at SPECTRAL_POINTS signal frequencies spanning
    delta_phi in [-SPECTRAL_SPAN_DPHI, SPECTRAL_SPAN_DPHI], in
    ``spectral_samples``.  The pair rate per unit signal angular frequency is

        dR/domega_s = [d a_s a_i E_p0 Phi / c]^2 * omega_s omega_i / (2 pi n_s n_i)

    with Phi the rate's overlap, :func:`~spdcgauss.modes.overlap_phi` at
    delta_k_y = 0 (perfect transverse phase matching), and the exact
    omega_s * omega_i product.  An overflow, division by zero or invalid
    operation in the spectrum raises ``FloatingPointError``.  Warns when the
    crystal is so long that sampled frequencies repeat.
    """
    import numpy as np
    report, geom, (lo, hi) = _closed_form(config)
    l = config.crystal.length_l
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        grid = np.linspace(lo, hi, SPECTRAL_POINTS)
        dkz = _delta_k_z(config, grid)
        phi = modes.overlap_phi(geom, 0.0, dkz, l)
        dphi = dkz * l / 2.0
        density = _density_prefactor(config) * grid * (config.pump.omega - grid) * phi * phi
    distinct = 1 + int(np.count_nonzero(np.diff(grid)))  # the grid is monotone
    if distinct < SPECTRAL_POINTS:
        report.warnings.append(f"only {distinct} of the {SPECTRAL_POINTS} sampled signal "
                               "frequencies are distinct: the crystal is too long for the "
                               "float spacing of omega_s")
    return report._replace(spectral_samples=np.column_stack((grid, density, dphi)))


# reference and rel_deviation are None where the config gives no reference value
ComparisonRow = namedtuple("ComparisonRow", "quantity model reference rel_deviation")


def comparison_rows(config: SourceConfig, report: RateReport) -> list:
    """Side-by-side comparison of model outputs with the reference values
    carried in the config (observed/predicted rates, efficiencies), as a
    list of :class:`ComparisonRow`.  ``report`` is the config's
    :func:`closed_form_report` or :func:`total_rate`; a walk-off warning
    is appended to its ``warnings`` unless they already hold it.

    The observable rate applies the experiment-specific factors: the
    measured pair-to-singles ratio and the decay-path multiplicity
    (both come from the config, never enter R_T itself).  The
    per-length conversion efficiencies are quoted in the thin-crystal
    normalization, where the rate is strictly proportional to crystal
    length and "per mm" is well defined, again with the decay-path
    factor applied.
    """
    _require_pair_ratio(config)
    ratio = config.pair_to_singles_ratio
    paths = config.decay_path_multiplicity
    observable = _product(config, "the observable paths ratio R_T", paths, ratio, report.R_T)
    eff_mm, eff_mm_sr = _efficiencies(config, paths * _thin_rate(config))

    ref = config.reference_values or {}
    ref_xi = ref.get("xi")
    walk_off = ("walk-off parameter uses Snell-refracted internal angles and "
                "deviates from the reference value; the reference is reproduced "
                "under the 'paper_external_as_internal' convention")
    if (config.angle_convention is AngleConvention.INTERNAL_PHYSICS
            and ref_xi is not None and abs(report.Xi - ref_xi) / ref_xi > 0.05
            and walk_off not in report.warnings):
        report.warnings.append(walk_off)
    per_mw = 1e3 * config.pump_power_p  # rates are quoted per mW of pump

    def row(name, model, key):
        r = ref.get(key)
        dev = (model - r) / r if r is not None else None
        if dev is not None and not math.isfinite(100.0 * dev):  # also shown in percent
            raise ComputationError(f"{name} = {model!r} deviates from reference.{key} = {r!r} "
                                   "by a ratio beyond the float range")
        return ComparisonRow(name, model, r, dev)

    rows = [
        row("walk_off_parameter_Xi", report.Xi, "xi"),
        row("spectral_integral_S", report.S, "S"),
        row("R_T_pairs_per_mW_s", report.R_T / per_mw, "r_t_per_mw_s"),
        row("observable_pairs_per_mW_s", observable / per_mw,
            "predicted_observable_per_mw_s"),
        row("efficiency_per_mm", eff_mm, "efficiency_per_mm"),
    ]
    if eff_mm_sr is not None:
        rows.append(row("efficiency_per_mm_sr", eff_mm_sr, "efficiency_per_mm_sr"))
    observed = ref.get("observed_per_mw_s")
    if observed is not None:
        rows.append(ComparisonRow("observed_pairs_per_mW_s (experiment)",
                                  observed, None, None))
    return rows


def _require_pair_ratio(config: SourceConfig):
    if config.pair_to_singles_ratio is None:
        raise ValidationError("pair_to_singles_ratio is required for the comparison")


def experiment_comparison(config: SourceConfig):
    """:func:`comparison_rows` of the config's :func:`total_rate`.

    Returns ``(rows, report)`` where ``rows`` is a list of
    :class:`ComparisonRow` and ``report`` the underlying
    :class:`RateReport`, sampled spectrum included.
    """
    _require_pair_ratio(config)  # before the rate work
    report = total_rate(config)
    return comparison_rows(config, report), report
