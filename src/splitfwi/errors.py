"""Exception types shared across the package, and the two checks of a
config dataclass's numeric fields."""

import numbers
import operator


class SplitFwiError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SplitFwiError):
    """Operands have incompatible or invalid shapes."""


class EmptySupportError(SplitFwiError):
    """An operation that needs at least one unmasked entry got none."""


class InputValidationError(SplitFwiError):
    """An input tensor contains non-finite or otherwise invalid values."""


class StabilityError(SplitFwiError):
    """A simulation configuration violates its stability bound."""


class ProtocolError(SplitFwiError):
    """A wire frame failed validation."""


class CorruptFileError(SplitFwiError):
    """A binary artifact failed its integrity checks."""


class PartitionError(SplitFwiError):
    """A receiver partition does not cover the receiver line correctly."""


class ConfigError(SplitFwiError):
    """A run configuration value is missing or invalid."""


class ReportError(SplitFwiError):
    """A stored run report is malformed."""


class DatasetError(SplitFwiError):
    """A stored dataset's manifest or one of its files is malformed."""


class WorkerError(SplitFwiError):
    """A worker thread of a socket run raised an unexpected exception."""


class ZeroEnergyError(SplitFwiError):
    """Energy fractions are undefined for an all-zero record."""


def int_field(name: str, value, error: type[SplitFwiError] = ConfigError) -> int:
    """value as an int, read through operator.index so that numpy ints
    pass; a bool, a float or a str raises error naming the field."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def real_field(name: str, value):
    """value, unless it is not a real number: a bool or a str raises
    ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value
