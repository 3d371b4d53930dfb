"""Longitudinal overlap Phi_z/l versus phase mismatch.

The 1-D overlap integral along the crystal controls the emission
spectrum.  Collinear geometry (walk-off Xi = 0) gives the classic sinc
shape with its hard zeros; as the beams tilt apart the interaction
volume, not the crystal faces, bounds the overlap and the curve turns
Gaussian-like and loses its zeros.

Run:  python demos/01_longitudinal_overlap.py
"""

import math

import numpy as np

from spdcgauss.modes import phi_z_grid

dphi = np.linspace(-15.0, 15.0, 1201)
xis = (0.0, 0.5, 1.0, 2.0, 4.0)
curves = {xi: phi_z_grid(xi, dphi) for xi in xis}

# the two limiting forms bracket the exact curves
print("peak value Phi_z/l at delta_phi = 0:")
for xi in xis:
    peak = curves[xi][len(dphi) // 2]
    limit = 1.0 if xi == 0.0 else math.sqrt(math.pi) / (2.0 * xi) * math.erf(xi)
    print(f"  Xi = {xi:3.1f}: {peak:.6f}   (erf closed form {limit:.6f})")

thin = np.sinc(dphi / np.pi)  # numpy's sinc(x) is sin(pi x)/(pi x)
print(f"\nXi = 0 versus sinc: max |difference| = "
      f"{np.max(np.abs(curves[0.0] - thin)):.2e}")

half = 1.391557
print(f"sinc spectrum half-power point: sinc({half}) = "
      f"{np.sinc(half / np.pi):.6f} (1/sqrt(2) = {1 / np.sqrt(2):.6f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for xi in xis:
        ax.plot(dphi, curves[xi], label=rf"$\Xi = {xi}$")
    ax.set_xlabel(r"phase mismatch $\Delta\varphi$")
    ax.set_ylabel(r"$\Phi_z / l$")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("demo_longitudinal_overlap.png", dpi=150)
    print("\nsaved demo_longitudinal_overlap.png")
except ImportError:
    print("\n(matplotlib not available, skipping the plot)")
