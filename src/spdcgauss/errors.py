"""Exception types used across the library.

Each family carries the label and exit code of its one-line CLI report,
``error LABEL: message`` on stderr:

  * ``ConfigurationError`` (bad input files / invalid parameters)
    -> ``VALIDATION``, exit 2; ``ParseError`` reports ``PARSE`` and
    ``UnknownMaterial`` ``UNKNOWN_MATERIAL``, both exit 2
  * ``ComputationError`` (numerical or physical failure) -> ``NUMERICAL``, exit 3
  * ``OverwriteRefused`` -> ``IO``, exit 4; the CLI reports a plain
    ``OSError`` the same way
"""


class SpdcGaussError(Exception):
    """Base class for all library errors; each family below sets the
    ``label`` and ``exit_code`` of its CLI report."""


class ComputationError(SpdcGaussError):
    """A computation could not be carried out with the requested accuracy
    or the inputs are outside the validity of the model."""

    label = "NUMERICAL"
    exit_code = 3


class OutOfRange(ComputationError):
    """Wavelength outside the validity window of a dispersion model."""


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

    label = "VALIDATION"
    exit_code = 2


class ParseError(ConfigurationError):
    """Config file is not valid JSON or has a malformed field."""

    label = "PARSE"


class ValidationError(ConfigurationError):
    """Config parsed but violates an invariant; message names the field."""


class UnknownMaterial(ConfigurationError):
    """Crystal name not present in the material database."""

    label = "UNKNOWN_MATERIAL"


class OverwriteRefused(SpdcGaussError):
    """Output file exists and --force was not given."""

    label = "IO"
    exit_code = 4
