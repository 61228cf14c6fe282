"""Exception types shared across the package."""


class DisdfError(Exception):
    """Base class for all errors raised by this package."""


class DataError(DisdfError):
    """A data file could not be parsed into a usable dataset."""


class RaggedRowError(DataError):
    """A CSV row has a different number of columns than the first row."""


class BadCellError(DataError):
    """A feature cell is not a finite real number."""


class SingleClassError(DataError):
    """The label column contains fewer than two distinct classes."""


class ConfigError(DisdfError):
    """Invalid configuration value."""


class DimensionError(DisdfError):
    """Input dimension does not match what a model expects."""


class DegeneratePairsError(DisdfError):
    """Degenerate pair set: all training pairs share one same/different-class flag."""


class ModelFormatError(DisdfError):
    """A model file is unreadable, corrupted, or has an unsupported version."""
