"""Retarded-time grids.

All fields in this package live on a one-dimensional grid in the retarded
time tau.  Periodic grids sample [start, start + period) uniformly without
the duplicate endpoint and back the transform-based convolutions; for that
use the sample count must be a power of two, at least 16.  Non-periodic
data lives on a declared finite window sampled inclusively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TauGrid:
    """Uniform grid in retarded time.

    Parameters
    ----------
    n : int
        Number of samples.
    period : float
        Length of the periodic cell (periodic grids only).
    start : float
        Left end of the sampled range.
    window : tuple of float, optional
        (lo, hi) of a windowed grid, which overrides ``period``/``start``.
        A grid without one is periodic.
    """

    n: int
    period: float = TWO_PI
    start: float = 0.0
    window: tuple[float, float] | None = None
    tau: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.periodic:
            if not _is_power_of_two(self.n) or self.n < 16:
                raise ConfigError(
                    f"periodic grids need a power-of-two sample count >= 16, got {self.n}")
            if not (self.period > 0.0 and math.isfinite(self.period)):
                raise ConfigError(f"period must be positive and finite, got {self.period}")
            tau = self.start + self.period * np.arange(self.n) / self.n
        else:
            lo, hi = self.window
            if not (hi > lo and math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"bad window {self.window!r}")
            if self.n < 3:
                raise ConfigError("non-periodic grids need at least 3 samples")
            tau = np.linspace(lo, hi, self.n)
        tau.flags.writeable = False
        object.__setattr__(self, "tau", tau)

    @classmethod
    def periodic_default(cls, n: int = 256) -> "TauGrid":
        return cls(n=n)

    @classmethod
    def windowed(cls, lo: float, hi: float, n: int) -> "TauGrid":
        return cls(n=n, window=(lo, hi))

    @property
    def periodic(self) -> bool:
        """Periodic grids omit the right endpoint; windowed grids include it."""
        return self.window is None

    @property
    def dtau(self) -> float:
        if self.periodic:
            return self.period / self.n
        lo, hi = self.window
        return (hi - lo) / (self.n - 1)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers matching ``numpy.fft.rfft`` ordering."""
        if not self.periodic:
            raise ConfigError("wavenumbers are defined for periodic grids only")
        return (TWO_PI / self.period) * np.arange(self.n // 2 + 1)

    def refined(self, factor: int) -> "TauGrid":
        """Same cell, ``factor`` times more samples (periodic grids)."""
        if not self.periodic:
            raise ConfigError("refinement is defined for periodic grids only")
        return TauGrid(n=self.n * factor, period=self.period, start=self.start)
