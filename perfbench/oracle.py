"""Independent reference values for every operation the benchmark runs.

Nothing here imports ``spdcgauss``: the physics is re-derived from the
model's closed forms, the refractive indices from the Sellmeier
coefficients in the shipped material database (read as data), and the
longitudinal overlap from a dense fixed Gauss-Legendre rule.  Each
``check_*`` function appends one message per mismatch to the list it is
given, so an operation whose list stays empty agrees with the oracle.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os

import numpy as np

C_LIGHT = 299792458.0
EPSILON_0 = 8.8541878128e-12
HBAR = 1.054571817e-34

S_TOL = 1e-6       # absolute, on S(Xi)
PHI_TOL = 1e-9     # absolute, on Phi_z / l
XI_RTOL = 1e-9
EXACT_RTOL = 1e-12  # quantities with no integral in them

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "src", "spdcgauss", "data")


def spectral_integral_S(xi: float) -> float:
    """Plancherel closed form S(Xi) = pi^(3/2) erf(sqrt2 Xi) / (2 sqrt2 Xi), S(0) = pi."""
    if xi < 1e-8:
        return math.pi
    r2 = math.sqrt(2.0)
    return math.pi ** 1.5 * math.erf(r2 * xi) / (2.0 * r2 * xi)


@functools.lru_cache(maxsize=8)
def _legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def phi_z(xi: float, delta_phi) -> np.ndarray:
    """Phi_z / l = int_0^1 exp(-Xi^2 u^2) cos(delta_phi u) du on a dense
    Gauss-Legendre rule (exact to roundoff for |delta_phi| <~ 2 n)."""
    d = np.atleast_1d(np.asarray(delta_phi, dtype=float))
    amax = float(np.max(np.abs(d))) if d.size else 0.0
    n = 64 * math.ceil((128 + amax) / 64)
    u, w = _legendre_01(n)
    wu = w * np.exp(-xi * xi * u * u)
    out = np.empty(d.size)
    for i in range(0, d.size, 256):  # chunked: keeps the oracle's memory small
        out[i:i + 256] = np.cos(np.outer(d[i:i + 256], u)) @ wu
    return out


def gamma_curve(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    return 1.0 / (1.0 / g + 2.0 * g) ** 2


@functools.lru_cache(maxsize=4)
def _material(name: str) -> dict:
    with open(os.path.join(DATA_DIR, "materials.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for m in doc["materials"]:
        if m["name"] == name:
            return m
    raise KeyError(name)


def shipped_config() -> dict:
    with open(os.path.join(DATA_DIR, "bbo_branciard.json"), encoding="utf-8") as fh:
        return json.load(fh)


def apply_overrides(raw: dict, overrides) -> dict:
    """``KEY=VALUE`` overrides as the CLI documents them: dotted key,
    value parsed as JSON and kept as a string when that fails."""
    raw = json.loads(json.dumps(raw))
    for item in overrides:
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        cur = raw
        parts = key.split(".")
        for p in parts[:-1]:
            cur = cur.setdefault(p, {})
        cur[parts[-1]] = parsed
    return raw


def _n_sq(branch: dict, lam_m: float) -> float:
    c0, c1, c2, c3 = branch["coefficients"]
    lam2 = (lam_m * 1e6) ** 2
    return c0 + c1 / (lam2 - c2) - c3 * lam2


class Source:
    """The rate model's inputs resolved from a raw config dict, by the
    paper's formulas (equal waists, degenerate daughters)."""

    def __init__(self, raw: dict):
        mat = _material(raw["crystal"]["material"])
        self.lam_p = raw["pump"]["wavelength_nm"] * 1e-9
        lam_d = 2.0 * self.lam_p
        self.power = raw["pump"]["power_mw"] * 1e-3
        self.waist = raw["pump"]["waist_um"] * 1e-6
        self.length = raw["crystal"]["length_mm"] * 1e-3
        theta_c = math.radians(raw["crystal"]["theta_c_deg"])
        phi_c = math.radians(raw["crystal"]["phi_c_deg"])
        coll = raw["collection"]
        self.solid_angle = coll.get("solid_angle_sr")
        self.pair_ratio = coll.get("pair_to_singles_ratio")
        self.paths = coll.get("decay_paths", 2)

        def n_ext(lam):
            no2 = _n_sq(mat["ordinary"], lam)
            ne2 = _n_sq(mat["extraordinary"], lam)
            c, s = math.cos(theta_c), math.sin(theta_c)
            return 1.0 / math.sqrt(c * c / no2 + s * s / ne2)

        self.n_p = n_ext(self.lam_p)
        n_o, n_e = math.sqrt(_n_sq(mat["ordinary"], lam_d)), n_ext(lam_d)
        if raw["polarization_assignment"] == "signal_ordinary":
            self.n_s, self.n_i = n_o, n_e
        else:
            self.n_s, self.n_i = n_e, n_o
        theta_ext = math.radians(coll["external_angle_deg"])
        if raw.get("angle_convention", "internal_physics") == "internal_physics":
            self.th_s = math.asin(math.sin(theta_ext) / self.n_s)
            self.th_i = math.asin(math.sin(theta_ext) / self.n_i)
        else:
            self.th_s = self.th_i = theta_ext
        self.d_eff = mat["d22_m_per_V"] * math.cos(theta_c) ** 2 * math.cos(3.0 * phi_c)
        self.omega_p = 2.0 * math.pi * C_LIGHT / self.lam_p

        w2 = self.waist ** 2
        cs, ci = math.cos(self.th_s), math.cos(self.th_i)
        self.A = 3.0 / w2
        self.C = (1.0 + cs * cs + ci * ci) / w2
        D = (math.sin(2 * self.th_s) - math.sin(2 * self.th_i)) / w2
        F = (math.sin(self.th_s) ** 2 + math.sin(self.th_i) ** 2) / w2
        H = max(F - D * D / (4.0 * self.C), 0.0)
        self.xi = math.sqrt(H) * self.length / 2.0
        self.S = spectral_integral_S(self.xi)

    @property
    def collinear(self) -> bool:
        return self.th_s == 0.0 and self.th_i == 0.0

    def _rate_denominator(self, n_bracket):
        return (math.pi * self.n_p * self.n_s * self.n_i * EPSILON_0 * C_LIGHT ** 2
                * math.pi * self.waist ** 2 * abs(n_bracket))

    def rate(self) -> float:
        """Closed-form total rate R_T (pairs/s) with the oracle S."""
        angular = 1.0 + math.cos(self.th_i) ** 2 + math.cos(self.th_s) ** 2
        bracket = self.n_i * math.cos(self.th_i) - self.n_s * math.cos(self.th_s)
        return (4.0 * self.d_eff ** 2 * self.power * self.length * self.omega_p ** 2 * self.S
                / (3.0 * angular * self._rate_denominator(bracket)))

    def thin_rate(self) -> float:
        """Collinear thin-crystal total rate (S = pi, angular factor 3)."""
        return (4.0 * self.d_eff ** 2 * self.power * self.length * self.omega_p ** 2 * math.pi
                / (9.0 * self._rate_denominator(self.n_i - self.n_s)))

    def phi_from_density(self, omega_s, density):
        """(delta_phi, |Phi_z/l|) recovered from dR/domega_s samples."""
        omega_s = np.asarray(omega_s, dtype=float)
        omega_i = self.omega_p - omega_s
        dkz = (self.n_s * omega_s * math.cos(self.th_s) + self.n_i * omega_i * math.cos(self.th_i)
               - self.n_p * self.omega_p) / C_LIGHT
        alpha2 = 2.0 / (math.pi * self.waist ** 2)
        ep2 = alpha2 * 2.0 * self.power / (EPSILON_0 * self.n_p * C_LIGHT)
        pref = (self.d_eff ** 2 * alpha2 * alpha2 * ep2 / C_LIGHT ** 2
                / (2.0 * math.pi * self.n_s * self.n_i))
        transverse = math.pi / math.sqrt(self.A * self.C) * self.length
        scale = pref * omega_s * omega_i * transverse ** 2
        return dkz * self.length / 2.0, np.sqrt(np.asarray(density, dtype=float) / scale)


# ------------------------------------------------------------------ checks


def check_scalar(errors, name, got, want, rtol=None, atol=None):
    """Relative check when ``rtol`` is given, absolute otherwise; NaN fails."""
    if not abs(got - want) <= (rtol * abs(want) if rtol is not None else atol):
        errors.append(f"{name}: got {got!r}, oracle {want!r}")


def check_xi_s(errors, src: Source, xi, s):
    if src.xi == 0.0:
        check_scalar(errors, "Xi", xi, 0.0, atol=1e-12)
    else:
        check_scalar(errors, "Xi", xi, src.xi, rtol=XI_RTOL)
    check_scalar(errors, "S", s, src.S, atol=S_TOL)


def rate_rtol(s_value: float) -> float:
    """An S error of S_TOL moves R_T by S_TOL / S relative."""
    return S_TOL / s_value + EXACT_RTOL


def check_phi_samples(errors, src: Source, omega_s, density, label):
    dphi, phi_abs = src.phi_from_density(omega_s, density)
    want = np.abs(phi_z(src.xi, dphi))
    dev = np.abs(phi_abs - want)
    if not np.all(dev <= PHI_TOL):
        i = int(np.argmax(dev))
        errors.append(f"{label}: |Phi_z/l| off by {dev[i]:.3e} at delta_phi={dphi[i]:.6g}")


def check_overlap_rows(errors, rows, label):
    """Rows (xi, delta_phi, phi_z_over_l) against the Gauss-Legendre oracle."""
    arr = np.asarray(rows, dtype=float).reshape(-1, 3)
    for xi in np.unique(arr[:, 0]):
        sel = arr[:, 0] == xi
        dev = np.abs(arr[sel, 2] - phi_z(float(xi), arr[sel, 1]))
        if not np.all(dev <= PHI_TOL):
            errors.append(f"{label}: Phi_z/l off by {dev.max():.3e} at Xi={xi}")


def check_s_rows(errors, rows, label):
    for xi, s in rows:
        if abs(s - spectral_integral_S(xi)) > S_TOL:
            errors.append(f"{label}: S({xi}) = {s!r}, oracle {spectral_integral_S(xi)!r}")
            return


def check_gamma_rows(errors, rows, label, lo, hi, points):
    arr = np.asarray(rows, dtype=float).reshape(-1, 3)
    want_g = np.linspace(lo, hi, points)
    if arr.shape[0] != points or not np.allclose(arr[:, 0], want_g, rtol=EXACT_RTOL, atol=0):
        errors.append(f"{label}: gamma grid differs from linspace({lo}, {hi}, {points})")
        return
    y = gamma_curve(arr[:, 0])
    y = y / y.max()
    if not np.allclose(arr[:, 1], y, rtol=EXACT_RTOL, atol=1e-15):
        errors.append(f"{label}: relative rate differs from 1/(1/g + 2g)^2")
    if arr[:, 2].sum() != 1 or int(np.argmax(arr[:, 2])) != int(np.argmax(y)):
        errors.append(f"{label}: is_max flag not on the maximum")


def check_comparison(errors, src: Source, values: dict):
    """``values``: quantity -> model value, as experiment_comparison or
    ``compare-experiment`` report them."""
    r_t = src.rate()
    check_xi_s(errors, src, values["walk_off_parameter_Xi"], values["spectral_integral_S"])
    per_mw = 1e3 * src.power
    check_scalar(errors, "R_T_pairs_per_mW_s", values["R_T_pairs_per_mW_s"], r_t / per_mw,
                 rtol=rate_rtol(src.S))
    check_scalar(errors, "observable_pairs_per_mW_s", values["observable_pairs_per_mW_s"],
                 src.paths * src.pair_ratio * r_t / per_mw, rtol=rate_rtol(src.S))
    eff = src.paths * src.thin_rate() * HBAR * src.omega_p / (src.power * src.length * 1e3)
    check_scalar(errors, "efficiency_per_mm", values["efficiency_per_mm"], eff,
                 rtol=rate_rtol(math.pi))
    if src.solid_angle:
        check_scalar(errors, "efficiency_per_mm_sr", values["efficiency_per_mm_sr"],
                     eff / src.solid_angle, rtol=rate_rtol(math.pi))


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def float_rows(path):
    return [tuple(float(v) for v in row) for row in read_csv(path)[1]]
