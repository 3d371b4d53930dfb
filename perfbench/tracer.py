"""Per-function spans around the library's layer entry points.

``Tracer.install`` replaces every module attribute in the loaded
``spdcgauss`` modules that is bound to a listed function -- ``rates``
imports ``phi_z``, ``spectral_integral_S``, ``geometry_coefficients`` and
``delta_k_z`` by name, so patching the defining module alone would miss
those calls.  Spans nest on one stack: a span's self time is its
duration minus that of its direct children, and its total time counts
only when no span of the same function encloses it, so ``phi_z``'s
recursive chunks are not counted twice.  A listed function that the
library no longer defines reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _evaluations(args, kwargs, result):
    return getattr(result, "evaluations", 0)


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _rows(args, kwargs, result):
    rows = args[3] if len(args) > 3 else kwargs.get("rows", ())
    return len(rows) if hasattr(rows, "__len__") else 0


# (module, function, counter name, counter, counted at the outermost span only)
TARGETS = (
    ("numerics", "integrate_finite", "evaluations", _evaluations, False),
    ("numerics", "integrate_symmetric_infinite", "evaluations", _evaluations, False),
    ("numerics", "erf", None, None, False),
    ("modes", "phi_z", "points", _result_size, True),
    ("modes", "spectral_integral_S", None, None, False),
    ("modes", "geometry_coefficients", None, None, False),
    ("rates", "total_rate", None, None, False),
    ("rates", "_spectral_density_grid", "points", _result_size, True),
    ("rates", "experiment_comparison", None, None, False),
    ("rates", "thin_crystal_rates", None, None, False),
    ("rates", "gamma_sweep", None, None, False),
    ("config", "load_config", None, None, False),
    ("config", "config_from_dict", None, None, False),
    ("materials", "load_material_db", None, None, False),
    ("materials", "delta_k_z", None, None, False),
    ("cli", "main", None, None, False),
    ("cli", "_write_csv", "rows", _rows, False),
)


def metric_names():
    """Names of the per-function metrics, in TARGETS order."""
    names = []
    for mod, func, counter, _, _ in TARGETS:
        base = f"{mod}.{func}"
        names += [f"{base}.calls", f"{base}.total_s", f"{base}.self_s"]
        if counter:
            names.append(f"{base}.{counter}")
    return names


class Tracer:
    """Aggregated spans: per function calls, total_s, self_s and a counter."""

    def __init__(self, package: str = "spdcgauss"):
        self.package = package
        self.stats = {f"{mod}.{func}": {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counter": 0}
                      for mod, func, *_ in TARGETS}
        self._stack = []    # [start, time spent in direct children]
        self._active = {}   # function key -> open spans of it
        self._restore = []  # (module, attribute, original)

    def install(self):
        """Wrap the listed functions; stats accumulate across installs."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for mod, func, counter, count, outer_only in TARGETS:
            key = f"{mod}.{func}"
            home = sys.modules.get(f"{self.package}.{mod}")
            original = getattr(home, func, None)
            if original is None:
                continue
            wrapper = self._wrap(key, original, count, outer_only)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))
        return self

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def _wrap(self, key, fn, count, outer_only):
        stats, stack, active = self.stats[key], self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not active.get(key)
            active[key] = active.get(key, 0) + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                active[key] -= 1
                if stack:
                    stack[-1][1] += dur
                stats["calls"] += 1
                stats["self_s"] += dur - frame[1]
                if outermost:
                    stats["total_s"] += dur
            if count is not None and (outermost or not outer_only):
                stats["counter"] += count(args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Flat ``module.func.field`` -> value, keyed as ``metric_names``."""
        out = {}
        for mod, func, counter, _, _ in TARGETS:
            key = f"{mod}.{func}"
            s = self.stats[key]
            out[f"{key}.calls"] = s["calls"]
            out[f"{key}.total_s"] = s["total_s"]
            out[f"{key}.self_s"] = s["self_s"]
            if counter:
                out[f"{key}.{counter}"] = s["counter"]
        return out


def merge(into: dict, other: dict):
    """Add one process's ``Tracer.metrics()`` into a running sum."""
    for k, v in other.items():
        into[k] = into.get(k, 0) + v
