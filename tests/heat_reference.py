"""Pure diffusion of periodic samples, the tests' independent reference.

It applies exp(-nu k^2 x) to each mode of one rfft, one station per call:
the arithmetic the package's heat smoothing must reproduce.
"""

import numpy as np


def heat_propagate(values, grid, nu, x):
    """Advance periodic samples on ``grid`` through distance x >= 0 of pure
    diffusion; exact for band-limited data."""
    values = np.asarray(values, dtype=float)
    if x == 0.0:
        return values.copy()
    k = grid.wavenumbers()
    return np.fft.irfft(np.fft.rfft(values) * np.exp(-nu * k * k * x),
                        n=grid.n)
