"""Exception hierarchy with stable, machine-readable error codes.

Every error raised by the library carries a ``code`` string that is safe to
match on programmatically (the CLI emits it as JSON on stderr).
"""

from __future__ import annotations

__all__ = [
    "KarmicError",
    "EmptyDataError",
    "MetricDomainError",
    "NonKarmicPointError",
    "DegenerateDistributionError",
    "NoSignChangeError",
    "TooManyAtomsError",
    "SeparableDataError",
    "DegenerateDesignError",
    "DimensionMismatchError",
    "BoundaryThresholdError",
    "SplitDegenerateError",
    "ModeUnsupportedError",
    "InsufficientPointsError",
]


class KarmicError(Exception):
    """Base class for all library errors."""

    code = "error"


class EmptyDataError(KarmicError):
    code = "empty-data"


class MetricDomainError(KarmicError):
    code = "metric-domain"


class NonKarmicPointError(KarmicError):
    code = "non-karmic-point"


class DegenerateDistributionError(KarmicError):
    code = "degenerate-distribution"


class NoSignChangeError(KarmicError):
    code = "no-sign-change"


class TooManyAtomsError(KarmicError):
    code = "too-many-atoms"


class SeparableDataError(KarmicError):
    code = "separable-data"


class DegenerateDesignError(KarmicError):
    code = "degenerate-design"


class DimensionMismatchError(KarmicError):
    code = "dimension-mismatch"


class BoundaryThresholdError(KarmicError):
    code = "boundary-threshold"


class SplitDegenerateError(KarmicError):
    code = "split-degenerate"


class ModeUnsupportedError(KarmicError):
    code = "mode-unsupported"


class InsufficientPointsError(KarmicError):
    code = "insufficient-points"
