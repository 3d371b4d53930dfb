"""spdcgauss: absolute photon-pair emission rates for spontaneous
parametric down-conversion from a bulk uniaxial crystal into single
transverse Gaussian modes, for collinear and non-collinear geometries.
Submodules and exported names load on first access (PEP 562).
"""

import importlib

_SUBMODULES = ("config", "constants", "curves", "errors", "materials", "modes", "rates")
_LAZY = {
    "config": ("AngleConvention", "GaussianMode", "PolarizationAssignment", "Role",
               "SourceConfig", "builtin_config_path", "load_config"),
    "errors": ("ComputationError", "ConfigurationError", "DegenerateDispersion", "NegativeH",
               "OutOfRange", "OverwriteRefused", "ParseError", "SpdcGaussError",
               "UnequalWaists", "UnknownMaterial", "ValidationError"),
    "materials": ("CrystalSpec", "MaterialRecord", "SellmeierSet", "load_material_db"),
    "curves": ("gamma_sweep", "optimal_gamma", "waist_scaling"),
    "modes": ("OverlapGeometry",),
    "rates": ("RateReport", "closed_form_report", "comparison_rows", "experiment_comparison",
              "total_rate"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_HOME])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
