"""Exception types raised across the package."""

from __future__ import annotations


class GraventError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GraventError):
    """Invalid run configuration. Carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class NegativeSquaredFrequency(GraventError):
    """Gravitational softening exceeds the bare trap stiffness."""


class UnstableFrame(GraventError):
    """Two-phonon drive at or beyond the inverted-potential threshold."""


class DimensionMismatch(GraventError):
    """Array shape incompatible with the declared subsystem dimensions."""


class NonHermitianInput(GraventError):
    """Matrix fails the Hermiticity check beyond tolerance."""


class CutoffTooSmall(GraventError):
    """Fock truncation leaks more probability than allowed."""

    def __init__(self, message: str, tail_mass: float):
        self.tail_mass = tail_mass
        super().__init__(f"{message} (tail mass {tail_mass:.3e})")


class EigenFailure(GraventError):
    """A banded Fock-block or Hermitian eigensolve did not converge."""


class NoConvergence(GraventError):
    """Cutoff doubling hit the ceiling: the report and settled results."""

    def __init__(self, message: str, report=None, results=None):
        self.report, self.results = report, results
        super().__init__(message)


__all__ = [
    "GraventError",
    "ConfigError",
    "NegativeSquaredFrequency",
    "UnstableFrame",
    "DimensionMismatch",
    "NonHermitianInput",
    "CutoffTooSmall",
    "EigenFailure",
    "NoConvergence",
]
