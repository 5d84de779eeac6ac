"""Exception hierarchy shared across the package, and the two checks of a numeric setting.

The CLI maps these onto exit codes: data/format problems exit 2,
training failures exit 3 (command-line usage errors, from argparse, exit 1).
"""

import math
from numbers import Integral, Real


class ThermalSenseError(Exception):
    pass


class InvalidInputError(ThermalSenseError, ValueError):
    """An operation or configuration received a value outside its domain."""


class DataFormatError(ThermalSenseError, ValueError):
    """A file does not conform to its on-disk format."""


class TrainingError(ThermalSenseError, RuntimeError):
    """Training failed to converge or diverged."""


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int, or InvalidInputError unless it is a non-bool integer in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInputError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def check_real(name: str, value, low: float = 0.0, closed: bool = False) -> float:
    """value as a float, or InvalidInputError unless a finite non-bool > low (>= low if closed)."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
            or (value < low if closed else value <= low)):
        bound = f">= {low:g}" if closed else f"> {low:g}" if low else "positive"
        raise InvalidInputError(f"{name} must be finite and {bound}, got {value!r}")
    return float(value)
