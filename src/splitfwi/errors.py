"""Exception types shared across the package, and the readers of a
field: every config and input number is typed by int_field or
real_field, and every tuple of them by tuple_field."""

import math
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


def tuple_field(name: str, value, count: int, error: type[SplitFwiError] = ConfigError, *,
                exact: bool = True) -> tuple:
    """value as a tuple of exactly count entries, or of at least count
    unless exact; anything else, such as a number or None, raises error
    naming the field."""
    try:
        entries = tuple(value)
    except TypeError:
        entries = None
    if entries is None or len(entries) < count or (exact and len(entries) > count):
        want = count if exact else f"{count} or more"
        raise error(f"{name} must hold {want} entries, got {value!r}")
    return entries


def real_field(name: str, value, error: type[SplitFwiError] = ConfigError, *,
               above: float | None = None, at_least: float | None = None) -> float:
    """value as a float; a bool, a str, a NaN or an inf raises error naming
    the field, as does a value not above `above` or below `at_least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past float's range
        value = math.inf if value > 0 else -math.inf
    if above is not None:
        ok, rule = value > above, f" and > {above:g}"
    elif at_least is not None:
        ok, rule = value >= at_least, f" and >= {at_least:g}"
    else:
        ok, rule = True, ""
    if not (ok and math.isfinite(value)):
        raise error(f"{name} must be finite{rule}, got {value}")
    return value
