"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: data/format problems exit 2,
training failures exit 3 (command-line usage errors, from argparse, exit 1).
"""


class ThermalSenseError(Exception):
    pass


class InvalidInputError(ThermalSenseError, ValueError):
    """An operation received a value outside its domain."""


class ConfigError(ThermalSenseError, ValueError):
    """A scene or classifier configuration violates its invariants."""


class StratificationError(ThermalSenseError, ValueError):
    """A split/fold request cannot preserve class representation."""


class DataFormatError(ThermalSenseError, ValueError):
    """A file does not conform to its on-disk format."""


class FormatVersionError(DataFormatError):
    """A file declares a format version newer than this reader supports."""


class TrainingError(ThermalSenseError, RuntimeError):
    """Training failed to converge or diverged."""


class StreamError(ThermalSenseError, ValueError):
    """A monitored label stream violated its ordering contract."""
