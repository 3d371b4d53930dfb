"""spdcgauss: absolute photon-pair emission rates for spontaneous
parametric down-conversion from a bulk uniaxial crystal into single
transverse Gaussian modes, for collinear and non-collinear geometries.
"""

from . import config, constants, materials, modes, rates
from .config import builtin_config_path, load_config
from .errors import (
    ComputationError,
    ConfigurationError,
    DegenerateDispersion,
    EnergyMismatch,
    NegativeH,
    OutOfRange,
    OverwriteRefused,
    ParseError,
    SpdcGaussError,
    UnequalWaists,
    UnknownMaterial,
    ValidationError,
)
from .materials import CrystalSpec, MaterialRecord, SellmeierSet, load_material_db
from .modes import GaussianMode, OverlapGeometry, Role
from .rates import (
    AngleConvention,
    PolarizationAssignment,
    RateReport,
    SourceConfig,
    experiment_comparison,
    gamma_sweep,
    optimal_gamma,
    spectral_rate_density,
    thin_crystal_rates,
    total_rate,
    waist_scaling,
)

__version__ = "0.1.0"
