"""Exception types shared across the package."""

from __future__ import annotations


class FpfkitError(Exception):
    """Base class for package errors."""


class ConfigError(FpfkitError):
    """Invalid run configuration; message lists every problem found."""


class ConvergenceError(FpfkitError):
    """An iterative estimator exceeded its level or iteration cap."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class RegionPopulationError(FpfkitError):
    """No usable seed samples inside the target region."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateThresholdError(FpfkitError):
    """A density split cannot separate cells (all densities equal)."""
