"""Exception types shared across the package."""

from __future__ import annotations


class MpoTomoError(Exception):
    """Base class for package-specific failures."""


class ValidationError(MpoTomoError, ValueError):
    """Malformed input: bad shapes, parameters out of range, bad config."""


class CompletenessError(MpoTomoError, ValueError):
    """A data table is missing required rows.

    Attributes:
        missing: list of (window_start, word_string) identifying absent rows.
    """

    def __init__(self, message: str, missing=()):
        super().__init__(message)
        self.missing = list(missing)


class DataError(MpoTomoError, ValueError):
    """Measured values violate a physical constraint beyond tolerance."""
