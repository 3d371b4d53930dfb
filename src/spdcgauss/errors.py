"""Exception types used across the library.

Three families, mirrored by the CLI exit codes:
  * ``ConfigurationError`` (bad input files / invalid parameters) -> exit 2
  * ``ComputationError`` (numerical or physical failure)          -> exit 3
  * I/O problems are plain ``OSError`` / ``OverwriteRefused``     -> exit 4
"""


class SpdcGaussError(Exception):
    """Base class for all library errors."""


class ComputationError(SpdcGaussError):
    """A computation could not be carried out with the requested accuracy
    or the inputs are outside the validity of the model."""


class OutOfRange(ComputationError):
    """Wavelength outside the validity window of a dispersion model."""


class EnergyMismatch(ComputationError):
    """Signal and idler frequencies do not add up to the pump frequency."""


class DegenerateDispersion(ComputationError):
    """The linearized frequency <-> longitudinal-mismatch change of
    variables breaks down (n_i cos(theta_i) ~ n_s cos(theta_s))."""


class NegativeH(ComputationError):
    """Floating-point cancellation drove the quadratic-form coefficient H
    below the clamping window; inputs are inconsistent."""


class UnequalWaists(ComputationError):
    """The closed-form total rate requires equal pump/signal/idler waists."""


class ConfigurationError(SpdcGaussError):
    """Base class for configuration-file problems."""


class ParseError(ConfigurationError):
    """Config file is not valid JSON or has a malformed field."""


class ValidationError(ConfigurationError):
    """Config parsed but violates an invariant; message names the field."""


class UnknownMaterial(ConfigurationError):
    """Crystal name not present in the material database."""


class OverwriteRefused(SpdcGaussError):
    """Output file exists and --force was not given."""
