"""Exception types shared across the package."""


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
