"""Heat-kernel machinery for the analytic pressure solutions.

Everything downstream of the boundary signal runs through the smoothed
exponential field

    K(a, x, tau) = integral e^{a W(xi) / nu} G(x, tau - xi) dxi,

where G is the heat kernel with diffusivity nu and W is the signal shape
at the throat.  Two independent evaluation routes are kept deliberately
separate: a spectral/quadrature route valid for any signal, and a modified
Bessel series valid for a pure harmonic.  Tests compare them against each
other; production code may use either.

Derivatives of K in the amplitude parameter a come from the same
convolution with W/nu and (W/nu)^2 weights.  At a = 0 they reduce to heat
propagation, which the perturbative solution takes from heat_propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import erfc

from ._quadrature import adaptive_quad
from .errors import (
    ConfigError,
    DomainError,
    RangeOverflowError,
    ResolutionError,
    SeriesTailError,
    WindowTruncationError,
)
from .grid import TauGrid

_BESSEL_SERIES_CUTOFF = 15.0
_BESSEL_ARG_LIMIT = 700.0     # normalization needs e^z in range
_RESCALE_THRESHOLD = 1e250
_SERIES_TAIL_RTOL = 1e-14
_SPECTRUM_TAIL_RTOL = 1e-12
_MAX_REFINEMENTS = 8
_WINDOW_MASS_LIMIT = 1e-10


def heat_kernel(x, tau, nu=1.0):
    """Free-space Gaussian G(x, tau) = exp(-tau^2/(4 nu x)) / sqrt(4 pi nu x)."""
    if nu <= 0.0:
        raise DomainError(f"diffusivity must be positive, got {nu:g}")
    if x <= 0.0:
        raise DomainError(f"heat kernel needs x > 0, got {x:g}")
    tau = np.asarray(tau, dtype=float)
    out = np.exp(-tau * tau / (4.0 * nu * x)) / math.sqrt(4.0 * math.pi * nu * x)
    return float(out) if out.ndim == 0 else out


def heat_propagate(values, grid: TauGrid, nu: float, x: float):
    """Advance periodic samples through distance x of pure diffusion.

    Spectral multiplication by exp(-nu k^2 x); exact for band-limited data.
    """
    if not grid.periodic:
        raise ConfigError("spectral propagation requires a periodic grid")
    if nu <= 0.0:
        raise DomainError(f"diffusivity must be positive, got {nu:g}")
    if x < 0.0:
        raise DomainError(f"cannot propagate backwards, got x = {x:g}")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ConfigError(
            f"expected {grid.n} samples on the grid, got shape {values.shape}")
    if x == 0.0:
        return values.copy()
    spec = np.fft.rfft(values)
    k = grid.wavenumbers()
    return np.fft.irfft(spec * np.exp(-nu * k * k * x), n=grid.n)


# ---------------------------------------------------------------------------
# modified Bessel functions I_k


def _bessel_power_series(count, z):
    # ascending series, adequate for |z| <= _BESSEL_SERIES_CUTOFF
    out = np.zeros(count)
    half = 0.5 * z
    q = half * half
    t0 = 1.0
    for k in range(count):
        if k > 0:
            t0 *= half / k
            if t0 == 0.0:
                break
        term = t0
        total = term
        j = 1
        while True:
            term *= q / (j * (k + j))
            total += term
            if term <= 1e-18 * total:
                break
            j += 1
        out[k] = total
    return out


def _bessel_miller(count, z, start):
    # downward recurrence from a trial order, normalized by
    # e^z = I_0 + 2 sum_{k>=1} I_k
    f = np.zeros(start + 2)
    f[start] = 1.0
    for k in range(start, 0, -1):
        f[k - 1] = f[k + 1] + (2.0 * k / z) * f[k]
        if abs(f[k - 1]) > _RESCALE_THRESHOLD:
            f[k - 1:] /= _RESCALE_THRESHOLD
    norm = f[0] + 2.0 * np.sum(f[1:])
    return f[:count] * (math.exp(z) / norm)


@lru_cache(maxsize=256)
def _bessel_sequence_cached(count: int, z: float) -> Tuple[float, ...]:
    if z <= _BESSEL_SERIES_CUTOFF:
        return tuple(_bessel_power_series(count, z))
    start = max(count + 10, int(z) + int(10.0 * math.sqrt(z)) + 20)
    prev = _bessel_miller(count, z, start)
    for _ in range(6):
        start += max(20, start // 2)
        cur = _bessel_miller(count, z, start)
        scale = max(cur[0], 1e-300)
        if np.max(np.abs(cur - prev)) <= 1e-13 * scale:
            return tuple(cur)
        prev = cur
    raise SeriesTailError(
        f"Bessel recurrence failed to stabilize for z = {z:g}",
        suggested_kmax=start)


def bessel_i_sequence(count, z):
    """I_0(z) .. I_{count-1}(z) as an array.

    Ascending series below z = 15, normalized downward recurrence above.
    Arguments past 700 would overflow the e^z normalization.
    """
    if count < 1:
        raise ConfigError("need at least one order")
    z = float(z)
    if math.isnan(z):
        raise DomainError("Bessel argument is NaN")
    if abs(z) > _BESSEL_ARG_LIMIT:
        raise RangeOverflowError(
            f"|z| = {abs(z):g} exceeds {_BESSEL_ARG_LIMIT:g}; "
            "the normalizing factor e^z overflows")
    if z == 0.0:
        out = np.zeros(count)
        out[0] = 1.0
        return out
    vals = np.array(_bessel_sequence_cached(count, abs(z)))
    if z < 0.0:
        vals[1::2] *= -1.0    # I_k(-z) = (-1)^k I_k(z)
    return vals


def bessel_i(order, z):
    if order < 0:
        order = -order        # I_{-k} = I_k
    return float(bessel_i_sequence(order + 1, z)[order])


# ---------------------------------------------------------------------------
# boundary signal


@dataclass(frozen=True)
class InitialCondition:
    """Signal shape W(tau) imposed at the throat (x = 0).

    Three flavors: a pure harmonic (enables the Bessel-series kernel),
    tabulated samples on a grid, or an arbitrary callable.
    """

    kind: str
    amplitude: float = 1.0
    phase: float = 0.0
    values: Optional[np.ndarray] = None
    grid: Optional[TauGrid] = None
    func: Optional[Callable] = None
    window: Optional[Tuple[float, float]] = None
    _interp: object = field(default=None, repr=False, compare=False)

    @classmethod
    def harmonic(cls, amplitude=1.0, phase=0.0):
        return cls(kind="harmonic", amplitude=float(amplitude), phase=float(phase))

    @classmethod
    def tabulated(cls, values, grid: TauGrid):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ConfigError(
                f"signal table has shape {values.shape}, grid wants ({grid.n},)")
        if not np.all(np.isfinite(values)):
            raise ConfigError("signal table contains non-finite entries")
        ic = cls(kind="tabulated", values=values, grid=grid,
                 window=None if grid.periodic else grid.window)
        if not grid.periodic:
            object.__setattr__(ic, "_interp",
                               PchipInterpolator(grid.tau, values, extrapolate=False))
        return ic

    @classmethod
    def from_callable(cls, func, window=None):
        return cls(kind="callable", func=func,
                   window=None if window is None else (float(window[0]), float(window[1])))

    @property
    def is_harmonic(self):
        return self.kind == "harmonic"

    def __call__(self, tau):
        """Pointwise evaluation; tabulated signals interpolate."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "harmonic":
            out = self.amplitude * np.cos(tau - self.phase)
        elif self.kind == "callable":
            out = np.asarray(self.func(tau), dtype=float)
            if out.shape != tau.shape:
                out = np.broadcast_to(out, tau.shape).astype(float)
        else:
            if self.grid.periodic:
                out = self._trig_eval(tau)
            else:
                out = self._interp(tau)
                out = np.where(np.isnan(out), 0.0, out)  # zero outside the window
        return float(out) if out.ndim == 0 else out

    def _trig_eval(self, tau):
        g = self.grid
        spec = np.fft.rfft(self.values) / g.n
        theta = 2.0 * math.pi * (np.atleast_1d(tau) - g.start) / g.period
        out = np.full(theta.shape, spec[0].real)
        for k in range(1, g.n // 2):
            out += 2.0 * (spec[k].real * np.cos(k * theta)
                          - spec[k].imag * np.sin(k * theta))
        out += spec[-1].real * np.cos((g.n // 2) * theta)
        return out.reshape(np.shape(tau))

    def sample(self, grid: TauGrid):
        """Samples of W on a grid; tabulated signals allow spectral refinement."""
        if self.kind == "tabulated":
            src = self.grid
            if grid == src:
                return self.values.copy()
            if not (src.periodic and grid.periodic):
                raise ConfigError("windowed signal tables cannot be resampled")
            if (grid.period != src.period or grid.start != src.start
                    or grid.n % src.n != 0):
                raise ConfigError(
                    "tabulated signal can only be resampled onto a refinement "
                    "of its own grid")
            return _resample_periodic(self.values, grid.n)
        return self(grid.tau)


def _resample_periodic(values, n_new):
    n = values.size
    if n_new == n:
        return values.copy()
    spec = np.zeros(n_new // 2 + 1, dtype=complex)
    spec[:n // 2 + 1] = np.fft.rfft(values)
    # the old Nyquist bin folds +/- frequencies; as an interior bin keep half
    if n_new > n:
        spec[n // 2] *= 0.5
    return np.fft.irfft(spec, n=n_new) * (n_new / n)


# ---------------------------------------------------------------------------
# the kernel field K and its amplitude derivatives


@dataclass(frozen=True)
class KernelField:
    """K, dK/da, d2K/da2 sampled on a grid at one station x."""

    a: float
    nu: float
    x: float
    grid: TauGrid
    k: np.ndarray
    k_a: np.ndarray
    k_aa: np.ndarray


def _check_params(a, nu, x):
    if nu <= 0.0:
        raise DomainError(f"diffusivity must be positive, got {nu:g}")
    if a < 0.0:
        raise DomainError(f"nonlinearity parameter must be >= 0, got {a:g}")
    if x < 0.0:
        raise DomainError(f"station must be >= 0, got {x:g}")


def kernel_quadrature(ic: InitialCondition, a, nu, x, grid: TauGrid):
    """Kernel field by direct convolution against the heat kernel.

    Periodic grids use the trapezoid sum in spectral form, refining the
    working grid until the exponential of the signal is resolved to
    rounding.  Windowed grids fall back to adaptive quadrature and require
    the Gaussian mass outside the window to be negligible.
    """
    _check_params(a, nu, x)
    if not grid.periodic:
        return _kernel_windowed(ic, a, nu, x, grid)

    fine = grid
    if x > 0.0:
        # the smoothing weights must also be resolved: modes past Nyquist
        # need exp(-nu kappa^2 x) below rounding
        need = (grid.period / math.pi) * math.sqrt(41.5 / (nu * x))
        while fine.n < need:
            fine = fine.refined(2)
    for _ in range(_MAX_REFINEMENTS + 1):
        w = ic.sample(fine)
        e = np.exp((a / nu) * w)
        spec = np.abs(np.fft.rfft(e))
        if max(spec[-1], spec[-2]) <= _SPECTRUM_TAIL_RTOL * spec.max():
            break
        fine = fine.refined(2)
    else:
        raise ResolutionError(
            "signal exponential not band-limited on any working grid",
            suggested_n=fine.n * 2)

    wn = w / nu
    fields = (e, wn * e, wn * wn * e)
    if x == 0.0:
        out = [f.copy() for f in fields]       # delta limit of the Gaussian
    else:
        kappa = fine.wavenumbers()
        weights = np.fft.irfft(np.exp(-nu * kappa * kappa * x), n=fine.n)
        # negative lobes are pure truncation noise; clipping them makes the
        # convolution a sum of nonnegative terms, so K stays positive even
        # when the signal exponential spans many decades
        weights = np.maximum(weights, 0.0)
        out = [_circular_convolve(f, weights) for f in fields]
    step = fine.n // grid.n
    k, k_a, k_aa = (f[::step] for f in out)
    return KernelField(a=float(a), nu=float(nu), x=float(x), grid=grid,
                       k=k, k_a=k_a, k_aa=k_aa)


def _circular_convolve(values, weights):
    n = values.size
    return np.convolve(np.tile(values, 2), weights)[n:2 * n]


def _kernel_windowed(ic, a, nu, x, grid):
    lo, hi = ic.window if ic.window is not None else (None, None)
    if lo is None:
        raise ConfigError("windowed kernel evaluation needs a signal window")
    if x == 0.0:
        w = ic(grid.tau)
        e = np.exp((a / nu) * w)
        return KernelField(a=float(a), nu=float(nu), x=0.0, grid=grid,
                           k=e, k_a=(w / nu) * e, k_aa=(w / nu) ** 2 * e)

    sigma = math.sqrt(4.0 * nu * x)
    tail = 0.5 * (erfc((hi - grid.tau) / sigma) + erfc((grid.tau - lo) / sigma))
    worst = float(np.max(tail))
    if worst > _WINDOW_MASS_LIMIT:
        raise WindowTruncationError(
            f"Gaussian mass {worst:.3e} outside the signal window "
            f"[{lo:g}, {hi:g}]; widen the window or reduce x",
            outside_mass=worst)

    def make(weight):
        def f(tau0):
            return adaptive_quad(
                lambda xi: weight(ic(xi)) * heat_kernel(x, tau0 - xi, nu),
                lo, hi, rtol=1e-11)
        return f

    base = make(lambda w: math.expm1((a / nu) * w))
    da = make(lambda w: (w / nu) * math.exp((a / nu) * w))
    daa = make(lambda w: (w / nu) ** 2 * math.exp((a / nu) * w))
    k = np.array([1.0 + base(t) for t in grid.tau])
    k_a = np.array([da(t) for t in grid.tau])
    k_aa = np.array([daa(t) for t in grid.tau])
    return KernelField(a=float(a), nu=float(nu), x=float(x), grid=grid,
                       k=k, k_a=k_a, k_aa=k_aa)


def kernel_series(ic: InitialCondition, a, nu, x, grid: TauGrid, *, kmax=None):
    """Kernel field for a harmonic signal via the modified Bessel expansion.

    The expansion of exp(z cos) in harmonics carries I_k(z) coefficients
    with z = a * amplitude / nu; diffusion multiplies harmonic k by
    exp(-nu k^2 x).  Derivatives in a use the I_k recurrences.
    """
    _check_params(a, nu, x)
    if not ic.is_harmonic:
        raise ConfigError("series kernel requires a harmonic signal")
    if not grid.periodic or abs(grid.period - 2.0 * math.pi) > 1e-12:
        raise ConfigError("series kernel requires a 2*pi periodic grid")

    z = a * ic.amplitude / nu
    needed = _series_order(z)
    if kmax is None:
        kmax = needed
    else:
        vals = bessel_i_sequence(kmax + 2, z)
        if abs(vals[kmax + 1]) > _SERIES_TAIL_RTOL * vals[0]:
            raise SeriesTailError(
                f"series truncated at k = {kmax} has tail "
                f"{abs(vals[kmax + 1]) / vals[0]:.3e} of the mean term",
                suggested_kmax=needed)
    iv = bessel_i_sequence(kmax + 3, z)

    orders = np.arange(1, kmax + 1)
    decay = np.exp(-nu * orders * orders * x)
    cosine = np.cos(orders[:, None] * (grid.tau[None, :] - ic.phase))

    def assemble(mean, coeffs):
        return mean + 2.0 * (coeffs * decay) @ cosine

    # dI_k/dz = (I_{k-1} + I_{k+1})/2,  d2I_k/dz2 = (I_{k-2} + 2 I_k + I_{k+2})/4
    # with I_{-1} = I_1 and I_{-2} = I_2; both arrays cover k = 0..kmax
    below = np.concatenate(([iv[1]], iv[:kmax]))
    below2 = np.concatenate(([iv[2], iv[1]], iv[:kmax - 1])) if kmax >= 1 \
        else np.array([iv[2]])
    iv_d = 0.5 * (below + iv[1:kmax + 2])
    iv_dd = 0.25 * (below2 + 2.0 * iv[:kmax + 1] + iv[2:kmax + 3])

    s = ic.amplitude / nu
    k = assemble(iv[0], iv[1:kmax + 1])
    k_a = s * assemble(iv_d[0], iv_d[1:kmax + 1])
    k_aa = s * s * assemble(iv_dd[0], iv_dd[1:kmax + 1])
    return KernelField(a=float(a), nu=float(nu), x=float(x), grid=grid,
                       k=k, k_a=k_a, k_aa=k_aa)


def _series_order(z):
    """Smallest kmax with |I_{kmax+1}| below the tail tolerance."""
    if z == 0.0:
        return 2
    count = 16 + int(2.0 * abs(z) + 6.0 * math.sqrt(abs(z)))
    for _ in range(8):
        vals = np.abs(bessel_i_sequence(count, z))
        below = np.nonzero(vals <= _SERIES_TAIL_RTOL * vals[0])[0]
        if below.size:
            return max(int(below[0]) - 1, 2)
        count *= 2
    raise SeriesTailError("no convergent truncation found",
                          suggested_kmax=count)
