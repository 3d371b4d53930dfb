"""Absolute rate prediction for a real BBO pair source.

Loads the shipped configuration (351.1 nm pump, 2 mm type-II BBO cut at
49.7 deg, 82 um waists, 3.1 deg collection) and prints the full model
output next to the reference values recorded in the config: the
walk-off parameter, the absolute and observable pair rates, and the
conversion efficiencies.

Run:  python demos/04_bbo_pair_source.py
"""

import numpy as np

import spdcgauss as sg

cfg = sg.load_config(sg.builtin_config_path("bbo_branciard"))
rows, report = sg.experiment_comparison(cfg)

print(f"pump:      {cfg.pump.lambda_vac * 1e9:.1f} nm, "
      f"{cfg.pump_power_p * 1e3:.1f} mW, waist {cfg.pump.waist_w * 1e6:.0f} um")
print(f"crystal:   {cfg.crystal.name}, {cfg.crystal.length_l * 1e3:.1f} mm, "
      f"cut {np.degrees(cfg.crystal.theta_c):.1f} deg")
print(f"collection: {np.degrees(cfg.external_collection_angle):.1f} deg external, "
      f"pair-to-singles {cfg.pair_to_singles_ratio}")
print(f"effective nonlinearity d = {abs(cfg.d_eff):.3e} m/V\n")

print(f"{'quantity':<40}{'model':>13}{'reference':>13}")
for r in rows:
    ref = f"{r.reference:.4g}" if r.reference is not None else "-"
    print(f"{r.quantity:<40}{r.model:>13.5g}{ref:>13}")

for w in report.warnings:
    print(f"\nnote: {w}")

# the emission spectrum behind the total: a narrow peak at the
# phase-matched signal frequency (delta_phi = 0), sinc-like softened by walk-off
omega, density, dphi = report.spectral_samples.T
peak = np.argmax(density)
print(f"\nspectral peak at omega_s = {omega[peak]:.4e} rad/s, delta_phi = {dphi[peak]:.3g} "
      f"(degeneracy at {cfg.pump.omega / 2:.4e})")
print(f"trapezoid integral of the sampled spectrum: "
      f"{np.trapezoid(density, omega):.1f} pairs/s vs R_T = {report.R_T:.1f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.2))
    ax.plot((omega - cfg.pump.omega / 2) / 1e12, density * 1e12)
    ax.set_xlabel(r"$(\omega_s - \omega_p/2)$ (10$^{12}$ rad/s)")
    ax.set_ylabel(r"d$R$/d$\omega_s$ (pairs / 10$^{12}$ rad)")
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("demo_bbo_spectrum.png", dpi=150)
    print("saved demo_bbo_spectrum.png")
except ImportError:
    print("(matplotlib not available, skipping the plot)")
