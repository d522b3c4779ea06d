"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1, DataError -> 2,
anything else raised during a run -> 3.
"""


class AmsomError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(AmsomError):
    """Invalid configuration value, option, config file or output path."""


class DataError(AmsomError):
    """Unusable input data (bad CSV row, shape mismatch, empty split, ...)."""


class MapStructureError(AmsomError):
    """A map does not satisfy the structural requirements of an operation."""


class TrainingError(AmsomError):
    """Training produced a non-recoverable state (e.g. non-finite error)."""
