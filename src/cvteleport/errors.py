"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "CutoffViolationError",
    "TruncationError",
    "TruncationWarning",
    "GridMismatchError",
    "EnvelopeError",
    "ZeroNormError",
    "NoCrossingError",
]


class CutoffViolationError(ValueError):
    """A photon-number index lies outside the truncated space."""


class TruncationError(ValueError):
    """A requested state cannot be represented at the cutoff within tolerance."""


class TruncationWarning(UserWarning):
    """Non-fatal diagnostic: a significant share of a result lies above the cutoff."""


class GridMismatchError(ValueError):
    """A quadrature grid fails the truncation-radius test for the given q."""


class EnvelopeError(RuntimeError):
    """The rejection-sampling envelope was exceeded by the target density."""


class ZeroNormError(ValueError):
    """An operation that needs a normalizable state received a zero vector."""


class NoCrossingError(RuntimeError):
    """No loss/gain crossing exists: ``crossing_radius`` at q >= 1/sqrt(2)."""
