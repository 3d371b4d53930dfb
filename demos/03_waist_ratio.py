"""Optimal pump-to-collection waist ratio.

With equal collection waists W and pump waist Wp = gamma * W, the pair
rate scales like 1/(W^2 (1/gamma + 2 gamma)^2).  Matching all three
waists (gamma = 1) is therefore NOT optimal: the maximum sits at
gamma = 1/sqrt(2), with the equal-waist choice about 11% below it.

Run:  python demos/03_waist_ratio.py
"""

import numpy as np

from spdcgauss.curves import gamma_sweep, optimal_gamma, waist_scaling

best = optimal_gamma()
print(f"optimal gamma = {best:.8f}   (1/sqrt(2) = {1 / np.sqrt(2):.8f})")

sweep = gamma_sweep(0.1, 3.0, 581)
gammas, rel = np.array(sweep).T
at_one = rel[np.argmin(np.abs(gammas - 1.0))]
print(f"relative rate at gamma = 1: {at_one:.4f} (8/9 = {8 / 9:.4f}, "
      f"{100 * (1 - at_one):.1f}% below the optimum)")

# the symmetry gamma <-> 1/(2 gamma) of the scaling law
for g in (0.2, 0.4, 0.6):
    partner = 1.0 / (2.0 * g)
    a = waist_scaling(g * 50e-6, 50e-6, 50e-6)
    b = waist_scaling(partner * 50e-6, 50e-6, 50e-6)
    print(f"waist_scaling at gamma {g:.1f} vs {partner:.2f}: "
          f"ratio {a / b:.12f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.5, 4.2))
    ax.plot(gammas, rel)
    ax.axvline(best, color="C3", lw=0.8, ls="--",
               label=rf"$\gamma = 1/\sqrt{{2}} \approx {best:.4f}$")
    ax.axvline(1.0, color="gray", lw=0.8, ls=":")
    ax.set_xlabel(r"waist ratio $\gamma = W_p / W$")
    ax.set_ylabel("relative pair rate")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("demo_waist_ratio.png", dpi=150)
    print("saved demo_waist_ratio.png")
except ImportError:
    print("(matplotlib not available, skipping the plot)")
