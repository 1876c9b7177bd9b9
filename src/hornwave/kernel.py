"""Heat-kernel machinery for the analytic pressure solutions.

Everything downstream of the boundary signal runs through the smoothed
exponential field

    K(a, x, tau) = integral e^{a W(xi) / nu} G(x, tau - xi) dxi,

where G is the heat kernel with diffusivity nu and W is the signal shape
at the throat.  Two independent evaluation routes are kept deliberately
separate: a quadrature route valid for any signal, and a modified Bessel
series valid for a pure harmonic.  Tests compare them against each other;
production code may use either.  Both need a periodic grid.

The quadrature route has one path, kernel_k.  It builds e = exp(a W / nu)
once on a working grid that resolves it, then smooths it with
heat_smoother in one of two ways, chosen from e alone.  When
e.max() / e.min() is at most _FFT_RANGE_LIMIT, it multiplies the spectrum
by exp(-nu k^2 x).  Above that, it sums e against the periodized Gaussian
itself.  Those weights are exact to rounding, so K keeps a few eps of its
own size at every point, troughs included.  kernel_quadrature reads K at
one station from that evaluator.

The quadrature route computes K alone; the amplitude derivatives come
from kernel_series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

# imported only for perfbench's tracer, which patches the name here;
# nothing in this module calls it
from ._quadrature import adaptive_quad  # noqa: F401
from .errors import (
    ConfigError,
    DomainError,
    RangeOverflowError,
    ResolutionError,
    SeriesTailError,
)
from .grid import TauGrid

_BESSEL_SERIES_CUTOFF = 15.0
_BESSEL_ARG_LIMIT = 700.0     # normalization needs e^z in range
_RESCALE_THRESHOLD = 1e250
_SERIES_TAIL_RTOL = 1e-14
_SPECTRUM_TAIL_RTOL = 1e-12
_MAX_REFINEMENTS = 8
_NEGLIGIBLE_EXPONENT = 41.5   # exp(-41.5) ~ 1e-18: a factor below rounding
# Largest e.max() / e.min() the spectral smoothing takes.  Its error is a few
# eps max(e) at every point, so relative to the smallest K it grows with the
# range: against a 40-digit Bessel sum (harmonic signal, stations down to
# nu x = 5e-4) it measured 6e-8 at e^20 (a/nu = 10), within 4x of the direct
# sum, 2e-4 at e^28 and 7e-2 at e^34, and K went negative at e^40.
_FFT_RANGE_LIMIT = 1e9
_SMALLEST_NORMAL = np.finfo(float).tiny


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


# ---------------------------------------------------------------------------
# boundary signal


@dataclass(frozen=True)
class InitialCondition:
    """Signal shape W(tau) imposed at the throat (x = 0).

    Two flavors: a pure harmonic (enables the Bessel-series kernel) or
    tabulated samples on a periodic grid.
    """

    kind: str
    amplitude: float = 1.0
    phase: float = 0.0
    values: Optional[np.ndarray] = None
    grid: Optional[TauGrid] = None

    @classmethod
    def harmonic(cls, amplitude=1.0, phase=0.0):
        return cls(kind="harmonic", amplitude=float(amplitude), phase=float(phase))

    @classmethod
    def tabulated(cls, values, grid: TauGrid):
        if not grid.periodic:
            raise ConfigError("a signal table needs a periodic grid; "
                              "this grid is windowed")
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ConfigError(
                f"signal table has shape {values.shape}, grid wants ({grid.n},)")
        if not np.all(np.isfinite(values)):
            raise ConfigError("signal table contains non-finite entries")
        return cls(kind="tabulated", values=values, grid=grid)

    @property
    def is_harmonic(self):
        return self.kind == "harmonic"

    def sample(self, grid: TauGrid):
        """Samples of W on a grid; tabulated signals allow spectral refinement."""
        if self.is_harmonic:
            return self.amplitude * np.cos(grid.tau - self.phase)
        src = self.grid
        if grid == src:
            return self.values.copy()
        if (not grid.periodic or grid.period != src.period
                or grid.start != src.start or grid.n % src.n != 0):
            raise ConfigError(
                "tabulated signal can only be resampled onto a refinement "
                "of its own grid")
        return _resample_periodic(self.values, grid.n)


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
    """K, dK/da, d2K/da2 on the caller's grid at the station it asked for.

    kernel_series fills all three.  kernel_quadrature fills K only and
    leaves the derivatives None.
    """

    k: np.ndarray
    k_a: Optional[np.ndarray] = None
    k_aa: Optional[np.ndarray] = None


def _check_medium(a, nu):
    if nu <= 0.0:
        raise DomainError(f"diffusivity must be positive, got {nu:g}")
    if a < 0.0:
        raise DomainError(f"nonlinearity parameter must be >= 0, got {a:g}")


def _check_station(x):
    if x < 0.0:
        raise DomainError(f"station must be >= 0, got {x:g}")


def kernel_quadrature(ic: InitialCondition, a, nu, x, grid: TauGrid):
    """K alone at station x on a periodic grid: the kernel_k evaluator's
    value there (1 to rounding at a = 0); kernel_series has derivatives."""
    return KernelField(k=kernel_k(ic, a, nu, grid)(x))


def kernel_k(ic: InitialCondition, a, nu, grid: TauGrid):
    """K alone on a periodic grid, as the function x -> K(a, x, .).

    The working grid and the signal exponential are built once.  On the
    spectral route each station then costs one spectral multiply; above the
    range limit each costs one direct sum, on a finer working grid, built
    once, where the smoothing weights at x need one.  A 1-D array of
    stations gives one row per station, each bitwise the scalar station's;
    the spectral route smooths them together.
    """
    _check_medium(a, nu)
    if not grid.periodic:
        raise ConfigError("the K evaluator needs a periodic grid")
    fine, e = _signal_exponential(ic, a, nu, grid)
    spectral = _spectral_route(e)
    smooth = heat_smoother(e, fine, nu, spectral)
    step = fine.n // grid.n
    finer = {}      # start size -> (direct smoother, step) on a finer grid

    def k_at(x):
        if np.ndim(x) == 0:
            return station(x)
        # a negative station goes the per-station way, which names it
        if spectral and not np.count_nonzero(x < 0.0):
            return smooth(x)[:, ::step]
        rows = np.empty((len(x), grid.n))
        for row, xp in zip(rows, x):
            row[:] = station(xp)
        return rows

    def station(x):
        _check_station(x)
        need = _weight_points(grid, nu, x)
        if spectral or need <= fine.n:
            return smooth(x)[::step]
        start = grid.n      # the first doubling that reaches need sets it
        while start < need:
            start *= 2
        if start not in finer:
            fine_x, e_x = _signal_exponential(ic, a, nu, grid, start)
            finer[start] = (heat_smoother(e_x, fine_x, nu, False),
                            fine_x.n // grid.n)
        smooth_x, step_x = finer[start]
        return smooth_x(x)[::step_x]

    return k_at


def _weight_points(grid, nu, x):
    """Samples the direct sum needs at station x: the modes past Nyquist
    must have exp(-nu kappa^2 x) below rounding."""
    if x == 0.0:
        return 0.0
    return (grid.period / math.pi) * math.sqrt(_NEGLIGIBLE_EXPONENT / (nu * x))


def _signal_exponential(ic, a, nu, grid, min_points=0.0):
    """Working grid and e = exp(a W / nu) for the periodic kernel.

    The caller's grid is doubled until it has min_points samples and then
    until every bin in the upper half of the spectrum of e has decayed to
    rounding: a spectrum on multiples of some p can leave the bins next to
    Nyquist empty while its aliases land on others.  W is sampled on the
    working grid and exponentiated there; an exponent past the double range,
    or a spectrum of e that overflows, raises RangeOverflowError, which no
    refinement fixes.
    """
    fine = grid
    while fine.n < min_points:
        fine = fine.refined(2)
    for _ in range(_MAX_REFINEMENTS + 1):
        w = ic.sample(fine)
        with np.errstate(over="ignore"):
            e = np.exp((a / nu) * w)
        if not np.all(np.isfinite(e)):
            raise RangeOverflowError(
                f"exp(a W / nu) overflows at a/nu = {a / nu:g}, "
                f"max aW/nu = {(a / nu) * np.max(w):g}")
        with np.errstate(over="ignore", invalid="ignore"):
            spec = np.abs(np.fft.rfft(e))
        if not np.all(np.isfinite(spec)):
            raise RangeOverflowError(
                f"the spectrum of exp(a W / nu) overflows at a/nu = "
                f"{a / nu:g}, max aW/nu = {(a / nu) * np.max(w):g}")
        if spec[spec.size // 2:].max() <= _SPECTRUM_TAIL_RTOL * spec.max():
            return fine, e
        fine = fine.refined(2)
    raise ResolutionError(
        "signal exponential not band-limited on any working grid",
        suggested_n=fine.n * 2)


def _spectral_route(e):
    """Whether e spans few enough decades for the spectral smoothing."""
    return e.max() <= _FFT_RANGE_LIMIT * e.min()


def heat_smoother(f, grid: TauGrid, nu, spectral):
    """x -> G(x) * f, heat smoothing of periodic samples on a grid.

    The spectral route takes the spectrum of f once and multiplies it by
    exp(-nu kappa^2 x), the arithmetic of heat_propagate; its rounding
    error is a few eps max|f| everywhere.  The direct route sums f against
    the periodized Gaussian, each weight exact to rounding, so it keeps a
    nonnegative f to a few eps of itself at every point.

    x may also be a 1-D array of stations; the result then has one row per
    station, each bitwise the row a scalar x gives.  The spectral route
    smooths them with one stacked exp and one irfft, the direct route one
    sum at a time.  x = 0 is the delta limit, f itself.
    """
    kappa = grid.wavenumbers()
    rate = -nu * kappa * kappa
    spec = np.fft.rfft(f) if spectral else None
    h, n = grid.period / grid.n, grid.n
    offsets = h * ((np.arange(n) + n // 2) % n - n // 2)   # in [-P/2, P/2)

    def smooth(x):
        if np.ndim(x) == 0:
            return station(x)
        if spectral and np.count_nonzero(x) == len(x):
            return np.fft.irfft(spec * np.exp(rate * x[:, None]), n=n)
        return np.array([station(xp) for xp in x])

    def station(x):
        if x == 0.0:
            return f.copy()                    # delta limit of the Gaussian
        if spectral:
            return np.fft.irfft(spec * np.exp(rate * x), n=n)
        # image m's exponent is at least m (m - 1) P^2 / (4 nu x) past the
        # nearest image's; it is dropped once that excess is negligible
        spread = 4.0 * nu * x
        m = int(0.5 + math.sqrt(0.25 + _NEGLIGIBLE_EXPONENT * spread
                                / grid.period ** 2))
        images = offsets + grid.period * np.arange(-m, m + 1)[:, None]
        weights = (np.exp(-images * images / spread).sum(axis=0)
                   * (h / math.sqrt(math.pi * spread)))
        # subnormal weights slow the sum and add nothing to it
        weights[weights < _SMALLEST_NORMAL] = 0.0
        return _circular_convolve(f, weights)

    return smooth


def _circular_convolve(values, weights):
    """Periodic sum out_i = sum_j values[(i - j) mod n] weights[j], as the
    n "valid" outputs of the tiled values less their first sample: bitwise
    the slice [n:2n] of the full convolution, at half its multiply-adds."""
    return np.convolve(np.tile(values, 2)[1:], weights, "valid")


def kernel_series(ic: InitialCondition, a, nu, x, grid: TauGrid, *, kmax=None):
    """Kernel field for a harmonic signal via the modified Bessel expansion.

    The expansion of exp(z cos) in harmonics carries I_k(z) coefficients
    with z = a * amplitude / nu; diffusion multiplies harmonic k by
    exp(-nu k^2 x).  Derivatives in a use the I_k recurrences.
    """
    _check_medium(a, nu)
    _check_station(x)
    if not ic.is_harmonic:
        raise ConfigError("series kernel requires a harmonic signal")
    if not grid.periodic or abs(grid.period - 2.0 * math.pi) > 1e-12:
        raise ConfigError("series kernel requires a 2*pi periodic grid")

    z = a * ic.amplitude / nu
    # harmonic k of K_aa carries I_{k-2}: two orders past the tail of I_k
    needed = _series_order(z) + 2
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
    return KernelField(k=k, k_a=k_a, k_aa=k_aa)


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
