"""Exception hierarchy shared across the pipeline.

Every error raised on a contract violation derives from ``QuakeboxError`` so
callers (and the CLI) can catch pipeline failures without swallowing genuine
bugs like ``TypeError``.
"""

from __future__ import annotations


class QuakeboxError(Exception):
    """Base class for all pipeline errors."""


class DegenerateInput(QuakeboxError):
    """Input too small or empty for the requested operation."""


class InvalidBand(QuakeboxError):
    """Band-pass corner frequencies violate 0 < low < high < Nyquist."""


class InvalidFactor(QuakeboxError):
    """Downsampling factor must be a positive integer."""


class DegenerateSeries(QuakeboxError):
    """Series is constant or too short for a feature to be defined."""


class UnknownFeature(QuakeboxError):
    """Feature code not present in the registry."""


class ZeroVariance(QuakeboxError):
    """A feature is constant across the fitting collection."""


class MissingParams(QuakeboxError):
    """Standardization parameters missing for a feature in the matrix."""


class MissingFeature(QuakeboxError):
    """A vector does not cover the model's feature set."""


class DegenerateLabels(QuakeboxError):
    """Training data contains a single class."""


class ShapeMismatch(QuakeboxError):
    """Paired sequences have different lengths."""


class TooFewEvents(QuakeboxError):
    """Not enough distinct events to populate every split."""


class InsufficientNoise(QuakeboxError):
    """Noise pool cannot supply the requested sample without replacement."""


class IngestError(QuakeboxError):
    """External prediction file lacks trace ids that the evaluation set holds."""


class FormatError(QuakeboxError):
    """A data file violates its documented format or a record invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(QuakeboxError):
    """A run configuration field is missing or invalid."""

    def __init__(self, field: str, message: str):
        self.field, self.reason = field, message
        super().__init__(f"{field}: {message}")
