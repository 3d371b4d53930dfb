"""Adaptive Gauss-Kronrod quadrature, kept as an independent oracle.

The library evaluates the longitudinal overlap on a fixed composite
Gauss-Legendre rule and the spectral integral S(Xi) in closed form.
This module holds the adaptive engine those routes replaced -- a
Gauss-Kronrod 7/15 pair (QUADPACK abscissae) with breadth-first panel
refinement, and an infinite-range integrator with 1/x^2 tail
extrapolation -- together with the nested-quadrature overlap and
spectral integral built on it, so the tests can cross-check the library
against a code path that shares none of its numerics.

Integrands are evaluated on arrays of abscissae, one call per refinement
sweep; plain scalar callables are transparently looped over.  They may
also be vector-valued: ``f`` applied to abscissae of shape ``(n,)`` may
return shape ``(m, n)``, in which case ``m`` independent integrals are
computed simultaneously and each component is refined until it meets
tolerance on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NonConvergence(Exception):
    """Adaptive quadrature failed to meet tolerance within the evaluation
    budget; usually signals a pathological integrand."""


class TailBoundFailure(Exception):
    """The tail estimate of an infinite-range integral still exceeds the
    tolerance at the maximum truncation half-width."""


# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])       # ascending, 15
_W_KRONROD = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])

# Panel seeding density for oscillatory integrands: radians of integrand
# phase per initial panel.  At this density the Kronrod-minus-Gauss error
# estimate of a pure cosine is already ~1e-11 of the amplitude.
PHASE_PER_PANEL = 3.8

_SQRT_PI = 1.7724538509055160273


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a quadrature: value, error estimate, abscissa count."""

    value: float | np.ndarray
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.abs_error_estimate >= 0.0:
            raise ValueError("abs_error_estimate must be >= 0")
        if not (self.evaluations >= 1 and np.isfinite(self.evaluations)):
            raise ValueError("evaluations must be a finite integer >= 1")


def _eval_panels(f, lefts, rights):
    """Apply the GK15 pair on each panel.

    Returns (k15, |k15 - g7|) with shape (..., n_panels); the leading
    dimensions come from vector-valued integrands.
    """
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 0 or y.shape[-1] != x.size:
        # scalar-only callable: loop per abscissa
        y = np.array([f(xi) for xi in x], dtype=float).T
    if not np.all(np.isfinite(y)):
        raise NonConvergence("integrand returned a non-finite value")
    y = y.reshape(y.shape[:-1] + (lefts.size, 15))
    k15 = (y * _W_KRONROD).sum(axis=-1) * half
    g7 = (y * _W_GAUSS).sum(axis=-1) * half
    return k15, np.abs(k15 - g7)


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_evaluations: int = 1_000_000,
    initial_intervals: int = 1,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over ``[a, b]``.

    Parameters
    ----------
    f : callable
        Integrand.  Preferably accepts an ndarray of abscissae and
        returns an array of matching trailing shape; may be vector
        valued (see module docstring).
    a, b : float
        Integration limits, ``a <= b``.
    rel_tol, abs_tol : float
        The refinement stops once the summed per-panel error estimate
        is below ``max(abs_tol, rel_tol * |integral|)`` for every
        component.
    max_evaluations : int
        Abscissa budget; exceeding it raises :class:`NonConvergence`.
    initial_intervals : int
        Number of equal panels to seed with.  Callers integrating a
        known oscillation should seed roughly one panel per
        ``PHASE_PER_PANEL`` radians of phase; adaptivity tops off.

    Returns
    -------
    QuadratureResult
    """
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be > 0")
    if not a <= b:
        raise ValueError("require a <= b")
    if a == b:
        return QuadratureResult(0.0, 0.0, 1)

    n0 = int(min(max(1, initial_intervals), max(1, max_evaluations // 15)))
    edges = np.linspace(a, b, n0 + 1)
    lefts, rights = edges[:-1].copy(), edges[1:].copy()
    values, errors = _eval_panels(f, lefts, rights)
    evaluations = 15 * n0

    while True:
        total = values.sum(axis=-1)
        total_err = errors.sum(axis=-1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        unconverged = total_err > tol
        if not np.any(unconverged):
            scalar = np.ndim(total) == 0
            return QuadratureResult(
                float(total) if scalar else total,
                float(np.max(total_err)),
                evaluations,
            )
        if evaluations >= max_evaluations:
            raise NonConvergence(
                f"error estimate {float(np.max(total_err)):.3e} above tolerance "
                f"after {evaluations} evaluations"
            )
        err2d = errors if errors.ndim > 1 else errors[None, :]
        worst = err2d.max(axis=-1, keepdims=True)
        # refine, for every unconverged component, the panels carrying
        # at least half of that component's worst panel error
        selected = (err2d >= 0.5 * worst) & np.atleast_1d(unconverged)[:, None]
        refine = np.any(selected, axis=0) & ((rights - lefts) > 1e-14 * (b - a))
        if not refine.any():
            raise NonConvergence("panel width at roundoff limit before tolerance met")
        mids = 0.5 * (lefts[refine] + rights[refine])
        new_lefts = np.concatenate([lefts[refine], mids])
        new_rights = np.concatenate([mids, rights[refine]])
        new_values, new_errors = _eval_panels(f, new_lefts, new_rights)
        evaluations += 15 * new_lefts.size
        lefts = np.concatenate([lefts[~refine], new_lefts])
        rights = np.concatenate([rights[~refine], new_rights])
        values = np.concatenate([values[..., ~refine], new_values], axis=-1)
        errors = np.concatenate([errors[..., ~refine], new_errors], axis=-1)


def integrate_symmetric_infinite(
    f: Callable,
    rel_tol: float = 1e-9,
    half_width_hint: float = 64.0,
    abs_tol: float = 0.0,
    phase_rate: float = 0.0,
    max_half_width: float = 1e6,
    max_evaluations: int = 1_000_000,
) -> QuadratureResult:
    """Integrate ``f`` over (-inf, inf) for integrands with tails decaying
    at least like 1/x^2.

    The core ``[-T, T]`` is integrated directly (``T`` starts at
    ``half_width_hint``).  The tail is handled by integrating four
    equal-width blocks on ``[T, 3T]``, fitting the local 1/x^2 tail
    coefficient to the last blocks and adding the extrapolated remainder
    analytically.  The reported error estimate includes the tail term;
    if it cannot be brought below tolerance by doubling ``T`` up to
    ``max_half_width``, :class:`TailBoundFailure` is raised.

    ``phase_rate`` (rad per unit x) seeds panel density for oscillatory
    integrands, exactly as ``initial_intervals`` does for
    :func:`integrate_finite`.  Even integrands are detected by probing
    and integrated on half the domain.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be > 0")
    T = float(half_width_hint)
    if not T > 0.0:
        raise ValueError("half_width_hint must be > 0")

    while True:
        probe = np.array([0.1234567 * T, 0.54321 * T, 0.9 * T])
        fp = np.asarray(f(np.concatenate([probe, -probe])), dtype=float)
        if fp.ndim == 0 or fp.shape != (6,):
            fp = np.array([f(x) for x in np.concatenate([probe, -probe])], dtype=float)
        even = bool(np.allclose(fp[:3], fp[3:], rtol=1e-12, atol=0.0))
        evaluations = 6

        def segment(lo, hi, seg_abs, seg_rel):
            nonlocal evaluations
            n0 = max(1, int(np.ceil(abs(hi - lo) * phase_rate / PHASE_PER_PANEL)))
            res = integrate_finite(
                f, lo, hi, seg_rel, seg_abs,
                max_evaluations=max_evaluations, initial_intervals=n0,
            )
            evaluations += res.evaluations
            return float(res.value), res.abs_error_estimate

        try:
            if even:
                core, core_err = segment(0.0, T, 0.25 * abs_tol + 1e-300, 0.25 * rel_tol)
                core, core_err = 2.0 * core, 2.0 * core_err
            else:
                core, core_err = segment(-T, T, 0.25 * abs_tol + 1e-300, 0.25 * rel_tol)

            budget = 0.1 * max(abs_tol, rel_tol * abs(core), 1e-300)
            value, err = core, core_err
            width = 0.5 * T
            for side in ([1.0] if even else [1.0, -1.0]):
                mult = 2.0 if even else 1.0
                blocks, block_errs, coeffs = [], [], []
                for k in range(4):
                    lo, hi = T + k * width, T + (k + 1) * width
                    bv, be = segment(min(side * lo, side * hi),
                                     max(side * lo, side * hi),
                                     budget, 0.25 * rel_tol)
                    blocks.append(mult * bv)
                    block_errs.append(mult * be)
                    coeffs.append(blocks[-1] / (1.0 / lo - 1.0 / hi))
                scale = abs(value) + sum(abs(x) for x in blocks) + 1e-300
                if abs(blocks[3]) < 1e-15 * scale and abs(blocks[2]) < 1e-15 * scale:
                    # tail already at roundoff (fast decay)
                    value += sum(blocks)
                    err += sum(block_errs) + abs(blocks[3])
                    continue
                edge = T + 4 * width
                tail = coeffs[3] / edge
                drift = max(abs(coeffs[3] - coeffs[2]), abs(coeffs[2] - coeffs[1]))
                tail_err = drift / edge + 1e-6 * abs(tail)
                value += sum(blocks) + tail
                err += sum(block_errs) + tail_err
        except NonConvergence:
            raise

        if err <= max(abs_tol, rel_tol * abs(value), 1e-300):
            return QuadratureResult(value, err, evaluations)
        T *= 2.0
        if T > max_half_width:
            raise TailBoundFailure(
                f"tail estimate {err:.3e} above tolerance at half-width {T / 2:.3e}"
            )


def phi_z_adaptive(xi: float, delta_phi, rel_tol: float = 1e-9,
                   abs_tol: float = 1e-12, _chunk: int = 1536):
    """Dimensionless longitudinal overlap

        Phi_z / l = int_0^1 exp(-Xi^2 u^2) cos(delta_phi u) du

    evaluated by adaptive quadrature.  ``delta_phi`` may be a scalar or
    an ndarray (the integrals are computed in one vectorised pass).
    Equals sinc(delta_phi) at Xi = 0 and (sqrt(pi)/(2 Xi)) erf(Xi) at
    delta_phi = 0.
    """
    if xi < 0:
        raise ValueError("Xi must be >= 0")
    arr = np.atleast_1d(np.asarray(delta_phi, dtype=float))
    if arr.size == 0:
        return np.empty(0)
    if arr.size > _chunk:
        # process in |delta_phi|-sorted chunks so the panel seeding of a
        # chunk matches its own oscillation scale
        order = np.argsort(np.abs(arr), kind="stable")
        out = np.empty_like(arr)
        for i in range(0, arr.size, _chunk):
            idx = order[i:i + _chunk]
            out[idx] = phi_z_adaptive(xi, arr[idx], rel_tol, abs_tol, _chunk)
        return out
    amax = float(np.max(np.abs(arr)))
    n0 = max(1, int(np.ceil(amax / PHASE_PER_PANEL)), int(np.ceil(xi)))
    xi2 = xi * xi

    def integrand(u):
        return np.exp(-xi2 * (u * u))[None, :] * np.cos(arr[:, None] * u[None, :])

    res = integrate_finite(integrand, 0.0, 1.0, rel_tol, abs_tol,
                           initial_intervals=n0)
    values = np.atleast_1d(res.value)
    if np.ndim(delta_phi) == 0:
        return float(values[0])
    return values


def spectral_integral_S_nested(xi: float, rel_tol: float = 1e-7) -> float:
    """Spectral integral S(Xi) = int |Phi_z/l|^2 d(delta_phi) over the
    whole real line, computed by quadrature of the overlap itself.

    S(0) = pi (thin-crystal anchor) and S decreases monotonically with
    Xi.  The truncation half-width is seeded at a multiple of pi so the
    sin^2-type tail oscillation cancels out of the tail fit.
    """
    if xi < 0:
        raise ValueError("Xi must be >= 0")

    def integrand(dphi):
        vals = phi_z_adaptive(xi, np.atleast_1d(dphi), rel_tol=1e-9, abs_tol=3e-10)
        return vals * vals

    res = integrate_symmetric_infinite(
        integrand,
        rel_tol=rel_tol,
        half_width_hint=64.0 * math.pi,
        abs_tol=2e-7,
        phase_rate=2.0,  # |Phi_z|^2 oscillates with period pi in delta_phi
    )
    return float(res.value)
