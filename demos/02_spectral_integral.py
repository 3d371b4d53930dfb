"""Spectral integral S(Xi): how non-collinear walk-off costs rate.

The total pair rate is proportional to S = int |Phi_z/l|^2 d(dphi).
It is largest, S = pi, for collinear beams and falls monotonically as
the walk-off parameter grows.  The library evaluates the closed form
obtained via Plancherel's identity, S = pi * int_0^1 exp(-2 Xi^2 u^2) du,
with the standard library's erf; it is checked here against the same
closed form evaluated with scipy's erf.

Run:  python demos/02_spectral_integral.py
"""

import numpy as np
from scipy.special import erf

from spdcgauss.curves import spectral_integral_S


def parseval(xi):
    if xi == 0.0:
        return np.pi
    a = np.sqrt(2.0) * xi
    return np.pi * np.sqrt(np.pi) / (2 * a) * erf(a)


xis = np.linspace(0.0, 5.0, 41)
S = np.array([spectral_integral_S(float(x)) for x in xis])

print(f"S(0)     = {S[0]:.8f}   (pi = {np.pi:.8f})")
print(f"S(0.933) = {spectral_integral_S(0.933):.6f}   "
      "(the worked BBO example sits mid-regime)")
print(f"S(5)     = {S[-1]:.6f}   (large-walk-off asymptote "
      f"pi^1.5/(2 sqrt(2) Xi) = {np.pi ** 1.5 / (2 * np.sqrt(2) * 5):.6f})")
worst = np.max(np.abs(S - np.array([parseval(float(x)) for x in xis])))
print(f"worst |library - scipy erf closed form| on the grid: {worst:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.5, 4.2))
    ax.plot(xis, S, "o-", ms=3, label="library (math.erf)")
    ax.plot(xis, [parseval(float(x)) for x in xis], "--",
            label="closed form (scipy erf)")
    ax.axhline(np.pi, color="gray", lw=0.8, ls=":")
    ax.set_xlabel(r"walk-off parameter $\Xi$")
    ax.set_ylabel(r"$S(\Xi)$")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("demo_spectral_integral.png", dpi=150)
    print("saved demo_spectral_integral.png")
except ImportError:
    print("(matplotlib not available, skipping the plot)")
