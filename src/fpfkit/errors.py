"""Exception types shared across the package."""

from __future__ import annotations


class FpfkitError(Exception):
    """Base class for package errors; ``partial`` is what the failing step
    had produced when it stopped, if anything."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigError(FpfkitError):
    """Invalid run configuration; message lists every problem found."""


class ConvergenceError(FpfkitError):
    """An iterative estimator exceeded its level or iteration cap."""


class RegionPopulationError(FpfkitError):
    """No usable seed samples inside the target region."""


class DegenerateThresholdError(FpfkitError):
    """A density split cannot separate cells (all densities equal)."""
