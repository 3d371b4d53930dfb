"""Numerical kernels: a composite Gauss-Legendre rule and sinc.

No domain knowledge lives here.  The quadrature rule is one fixed-order
Gauss-Legendre rule tiled over equal panels, so an integral costs a
known number of integrand evaluations decided before any is made; the
caller picks the panel count from the oscillation and decay scales of
its integrand.

All routines are pure functions; results depend only on the arguments.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GL_ORDER", "gauss_legendre", "sinc"]

# nodes of the Gauss-Legendre rule tiled over each panel
GL_ORDER = 32


@functools.cache
def _legendre_rule():
    # imported on first use so that importing the package does not load
    # numpy.polynomial; the cached arrays are shared, hence read-only
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(GL_ORDER)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, panels: int):
    """Nodes and weights of the ``GL_ORDER``-point Gauss-Legendre rule
    tiled over ``panels`` equal panels of ``[a, b]``.

    Exact for polynomials of degree < 2 * GL_ORDER on each panel.  For an
    entire integrand the error falls off faster than exponentially once
    each panel spans less than about GL_ORDER radians of oscillation
    phase (and of Gaussian decay, counted in widths).
    """
    x, w = _legendre_rule()
    h = (b - a) / panels
    left = a + h * np.arange(panels)
    nodes = (left[:, None] + (0.5 * h) * (x + 1.0)).ravel()
    weights = np.tile((0.5 * h) * w, panels)
    return nodes, weights


def sinc(x):
    """sin(x)/x with the removable singularity filled in: sinc(0) = 1.

    Accepts scalars or arrays.  (Note: unlike numpy.sinc there is no
    factor of pi in the argument.)
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-4
    safe = np.where(small, 1.0, arr)
    out = np.where(small, 1.0 - arr * arr / 6.0, np.sin(safe) / safe)
    if np.ndim(x) == 0:
        return float(out)
    return out
