"""Exception types shared across the package, and the domain checks that
scalar parameter validation goes through."""

import math

import numpy as np

__all__ = [
    "NfbistError",
    "ParameterError",
    "ShapeError",
    "InsufficientDataError",
    "DegenerateReferenceError",
    "DegenerateBandError",
    "SingularYError",
    "ConfigError",
    "CaptureFormatError",
    "CaptureCorruptError",
]


class NfbistError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(NfbistError, ValueError):
    """A scalar argument is outside its documented domain."""


def _is_bool(value) -> bool:
    # bool is an int subclass, so True would otherwise pass as the number 1.
    return isinstance(value, (bool, np.bool_))


def is_finite_number(value) -> bool:
    """True for a finite real number; False for NaN, inf, bools and non-numbers
    such as strings or None, which math.isfinite would raise TypeError on."""
    if _is_bool(value):
        return False
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def check_positive(name: str, value) -> None:
    """Raise ParameterError unless value is a finite number > 0, and not a bool.

    Written as a negated conjunction so that NaN, which fails every
    comparison, is rejected rather than slipping past a ``value <= 0`` test.
    """
    if not (is_finite_number(value) and value > 0.0):
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def check_non_negative(name: str, value) -> None:
    """Raise ParameterError unless value is a finite number >= 0 (NaN fails
    too), and not a bool."""
    if not (is_finite_number(value) and value >= 0.0):
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


def check_integer(name: str, value, minimum: int) -> int:
    """value as an int if it is an integral number >= minimum, not a bool.

    Integral floats (1000.0) and numpy integers are accepted and returned as
    int; NaN, inf, fractions, strings and bools raise ParameterError.
    """
    try:
        ok = (
            not _is_bool(value)
            and int(value) == value
            and value >= minimum
        )
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class ShapeError(NfbistError, ValueError):
    """Array arguments have incompatible lengths, rates or grids."""


class InsufficientDataError(ParameterError):
    """Not enough samples for the requested analysis (e.g. FFT size)."""


class DegenerateReferenceError(NfbistError, ValueError):
    """Reference peak power is zero or unusable for normalization."""


class DegenerateBandError(NfbistError, ValueError):
    """No spectral bins remain in the integration band after exclusions."""


class SingularYError(NfbistError, ValueError):
    """Y-factor equals 1, so the noise-factor equations are singular."""


class ConfigError(NfbistError, ValueError):
    """Experiment configuration is invalid.

    ``fields`` lists one message per offending field so a caller can report
    every problem at once instead of stopping at the first.
    """

    def __init__(self, fields):
        self.fields = list(fields)
        super().__init__("invalid configuration: " + "; ".join(self.fields))


class CaptureFormatError(NfbistError):
    """Capture file has an unsupported magic number or version."""


class CaptureCorruptError(NfbistError):
    """Capture file is truncated or internally inconsistent."""
