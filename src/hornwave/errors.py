"""Exception types shared across the package.

Two broad families matter to callers: configuration problems (bad input,
before any numerics run) and numeric failures (a computation that started
but cannot finish honestly).  The CLI maps the former to exit code 2 and
the latter to exit code 3; library users can catch :class:`HornWaveError`
for either.
"""

from __future__ import annotations


class HornWaveError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HornWaveError):
    """Invalid configuration or input data, detected before computing."""


class DomainError(HornWaveError, ValueError):
    """Evaluation requested outside a declared domain of validity."""


class SingularProfileError(HornWaveError):
    """The classifying denominator b(zeta) vanishes inside the requested range."""


class QuadratureError(HornWaveError):
    """An adaptive quadrature failed to reach its tolerance."""

    def __init__(self, message: str, achieved: float | None = None,
                 target: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.target = target


class SeriesTailError(HornWaveError):
    """A truncated series cannot meet its tail bound at the requested order."""

    def __init__(self, message: str, suggested_kmax: int | None = None):
        super().__init__(message)
        self.suggested_kmax = suggested_kmax


class RangeOverflowError(HornWaveError, OverflowError):
    """Argument so large that a double-precision evaluation would overflow."""


class BreakdownError(HornWaveError):
    """Logarithm argument of an approximate solution reached zero.

    Marks the physical limit of the approximation; never clamped.  Carries
    the first offending station and phase.
    """

    def __init__(self, message: str, x: float | None = None,
                 tau: float | None = None):
        super().__init__(message)
        self.x = x
        self.tau = tau


class BlowUpError(HornWaveError):
    """Finite-coordinate escape of an ODE solution."""

    def __init__(self, message: str, escape: float | None = None):
        super().__init__(message)
        self.escape = escape


class CoverageError(HornWaveError):
    """A tabulated function was evaluated outside its covered range."""


class ResolutionError(HornWaveError):
    """The marching step collapsed; the grid cannot resolve the solution."""

    def __init__(self, message: str, suggested_n: int | None = None):
        super().__init__(message)
        self.suggested_n = suggested_n


class SpacingError(HornWaveError):
    """An operation requiring uniform station spacing received uneven input."""
