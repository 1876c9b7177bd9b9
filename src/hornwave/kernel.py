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
once on a working grid that resolves it and smooths it with heat_smoother,
which is spectral: it multiplies the spectrum by exp(-nu k^2 x), which
rounds to a few eps max(e) at every point.  A station is a one-row call of
the same path that smooths an array of stations.  Each row is kept when
max(e) is at most _FFT_RANGE_LIMIT times its smallest sample, so the error
is at most about eps 1e9 of K anywhere.  A row that fails is replaced by
_direct_sum, which sums e against the periodized Gaussian at that one
station.  Those weights are exact to rounding, so K keeps a few eps of its
own size at every point, troughs included.  Heat smoothing only raises
min K as x grows, so the direct sums fall near x = 0, and only for a
signal whose e spans more than the limit; at x = 0, K is e itself on
either route.  kernel_quadrature reads K at one station from that
evaluator.

The quadrature route computes K alone; the amplitude derivatives come
from kernel_series, which reads one sequence I_0(z) .. I_N(z) a call from
one backward continued fraction (bessel_i_sequence).
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

_BESSEL_ARG_LIMIT = 700.0     # normalization needs e^z in range
_SERIES_TAIL_RTOL = 1e-14
_SPECTRUM_TAIL_RTOL = 1e-12
_MAX_REFINEMENTS = 8
_NEGLIGIBLE_EXPONENT = 41.5   # exp(-41.5) ~ 1e-18: a factor below rounding
# Largest max(e) / min K a spectral row of K may span, where e = exp(aW/nu).
# The row's error is a few eps max(e) at every point, so relative to the
# smallest K it grows with the span.  Against a 40-digit Bessel sum
# (harmonic signal, a/nu = 15, 25 and 50) the worst error, at min K,
# measured 2e-11 to 5e-11 where K spans 1e6, 2.0e-8 to 2.6e-8 at 1e9 and
# 1.0e-5 to 2.3e-5 at 1e12: about a tenth of eps times the span.
_FFT_RANGE_LIMIT = 1e9
_SMALLEST_NORMAL = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# modified Bessel functions I_k


def _bessel_ratios(count, z, start):
    """I_0(z) .. I_{count-1}(z), z > 0, from the continued fraction
    started at order start; see bessel_i_sequence."""
    ratios = np.empty(start)
    r = 0.0
    for k in range(start, 0, -1):
        r = z / (2.0 * k + z * r)
        ratios[k - 1] = r
    rel = np.cumprod(ratios)
    return np.concatenate(([1.0], rel[:count - 1])) * (
        math.exp(z) / (1.0 + 2.0 * rel.sum()))


@lru_cache(maxsize=256)
def _bessel_sequence_cached(count: int, z: float) -> Tuple[float, ...]:
    # the fraction has converged when a start half again as deep agrees
    start = max(count + 10, int(z) + int(10.0 * math.sqrt(z)) + 20)
    shallow = _bessel_ratios(count, z, start)
    deep = _bessel_ratios(count, z, start + max(20, start // 2))
    if np.max(np.abs(deep - shallow)) > 1e-13 * deep[0]:
        raise SeriesTailError(
            f"Bessel continued fraction failed to converge for z = {z:g}")
    return tuple(deep)


def bessel_i_sequence(count, z):
    """I_0(z) .. I_{count-1}(z) as an array.

    One backward continued fraction for every z (Miller's algorithm in
    ratio form): r_{k-1} = I_k / I_{k-1} = z / (2k + z r_k) from r = 0 at
    a start order past the tail; I_k / I_0 is the running product, and
    e^z = I_0 (1 + 2 sum_{k>=1} I_k / I_0) gives I_0.  The ratios lie in
    (0, 1) and underflow to 0 past the tail, so no z overflows them.
    I_k(-z) = (-1)^k I_k(z); arguments past 700 would overflow e^z.
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
        amplitude, phase = float(amplitude), float(phase)
        if not (math.isfinite(amplitude) and math.isfinite(phase)):
            raise ConfigError("harmonic amplitude and phase must be finite")
        return cls(kind="harmonic", amplitude=amplitude, phase=phase)

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
        if (not grid.periodic or grid.period != src.period
                or grid.start != src.start or grid.n % src.n != 0):
            raise ConfigError(
                "tabulated signal can only be resampled onto a refinement "
                "of its own grid")
        if grid.n == src.n:
            return self.values.copy()
        return _resample_periodic(self.values, grid.n)


def _resample_periodic(values, n_new):
    """The band-limited interpolant of values on a finer grid, n_new > n."""
    n = values.size
    spec = np.zeros(n_new // 2 + 1, dtype=complex)
    spec[:n // 2 + 1] = np.fft.rfft(values)
    # the old Nyquist bin folds +/- frequencies; as an interior bin keep half
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
    # written so that NaN fails each check
    if not 0.0 < nu < math.inf:
        raise DomainError(f"diffusivity must be positive and finite, got {nu:g}")
    if not 0.0 <= a < math.inf:
        raise DomainError(
            f"nonlinearity parameter must be >= 0 and finite, got {a:g}")


def _check_station(x):
    """Name the first station of a scalar or an array that is not >= 0
    (negative or NaN)."""
    bad = ~np.greater_equal(x, 0.0)
    if bad.any():
        raise DomainError(
            f"station must be >= 0, got {np.extract(bad, x)[0]:g}")


def kernel_quadrature(ic: InitialCondition, a, nu, x, grid: TauGrid):
    """K alone at station x on a periodic grid: the kernel_k evaluator's
    value there (1 to rounding at a = 0); kernel_series has derivatives."""
    return KernelField(k=kernel_k(ic, a, nu, grid)(x))


def kernel_k(ic: InitialCondition, a, nu, grid: TauGrid):
    """K alone on a periodic grid, as the function x -> K(a, x, .).

    The working grid and the signal exponential e are built once.  x is a
    station or a 1-D array of them, one row each; a station is a one-row
    call.  The stations are smoothed together by one spectral multiply,
    and a row is kept when max(e) is at most _FFT_RANGE_LIMIT times its
    smallest sample on the working grid; its error is then at most about
    eps 1e9 of K at every point.  A row that fails at x > 0 is replaced by
    one direct sum, exact to a few eps of K everywhere, on a finer working
    grid, built once, where the smoothing weights at x need one.  At x = 0
    the row is e itself on either route.
    """
    _check_medium(a, nu)
    if not grid.periodic:
        raise ConfigError("the K evaluator needs a periodic grid")
    fine, e = _signal_exponential(ic, a, nu, grid)
    smooth = heat_smoother(e, fine, nu)
    e_max = e.max()
    step = fine.n // grid.n
    direct = {fine.n: (fine, e)}    # start size -> (working grid, e)

    def k_at(x):
        xs = np.atleast_1d(x)
        _check_station(xs)
        rows = smooth(xs)
        failed = ~_spectral_route(e_max, rows) & (xs > 0.0)
        rows = rows[:, ::step]
        for i in np.flatnonzero(failed):
            rows[i] = direct_row(xs[i])
        return rows if np.ndim(x) else rows[0]

    def direct_row(x):
        need = _weight_points(grid, nu, x)
        start = fine.n
        if need > fine.n:
            start = grid.n      # the first doubling that reaches need sets it
            while start < need:
                start *= 2
        if start not in direct:
            direct[start] = _signal_exponential(ic, a, nu, grid, start)
        fine_x, e_x = direct[start]
        return _direct_sum(e_x, fine_x, nu, x)[::fine_x.n // grid.n]

    return k_at


def _weight_points(grid, nu, x):
    """Samples the direct sum needs at station x: the modes past Nyquist
    must have exp(-nu kappa^2 x) below rounding.  x > 0."""
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


def _spectral_route(e_max, k):
    """Whether each spectral row of K (along the last axis) has its minimum
    within _FFT_RANGE_LIMIT of e_max = max(e).  A product, not a quotient,
    so that a limit of 0 sends every row to the direct sum; where it
    overflows, K is near the top of the double range and the row passes."""
    with np.errstate(over="ignore"):
        return e_max <= _FFT_RANGE_LIMIT * np.min(k, axis=-1)


def heat_smoother(f, grid: TauGrid, nu):
    """x -> G(x) * f, spectral heat smoothing of periodic samples on a grid.

    The spectrum of f is taken once and multiplied by exp(-nu kappa^2 x);
    the rounding error is a few eps max|f| everywhere, which kernel_k
    accepts only where the smoothed f stays within _FFT_RANGE_LIMIT of
    max|f|.  x is a station or a 1-D array of them, one row each, from one
    stacked exp and one irfft; a station is a one-row call.  x = 0 is the
    delta limit, f itself.
    """
    kappa = grid.wavenumbers()
    rate = -nu * kappa * kappa
    spec = np.fft.rfft(f)

    def smooth(x):
        xs = np.atleast_1d(x)
        rows = np.fft.irfft(spec * np.exp(rate * xs[:, None]), n=grid.n)
        rows[xs == 0.0] = f                     # delta limit of the Gaussian
        return rows if np.ndim(x) else rows[0]

    return smooth


def _direct_sum(f, grid: TauGrid, nu, x):
    """G(x) * f at one station x > 0, summed against the periodized
    Gaussian.  Each weight is exact to rounding, so a nonnegative f keeps
    a few eps of itself at every point."""
    h, n = grid.period / grid.n, grid.n
    offsets = h * ((np.arange(n) + n // 2) % n - n // 2)   # in [-P/2, P/2)
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


def _circular_convolve(values, weights):
    """Periodic sum out_i = sum_j values[(i - j) mod n] weights[j], as the
    n "valid" outputs of the tiled values less their first sample: bitwise
    the slice [n:2n] of the full convolution, at half its multiply-adds."""
    return np.convolve(np.tile(values, 2)[1:], weights, "valid")


def kernel_series(ic: InitialCondition, a, nu, x, grid: TauGrid):
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
    size = min(abs(z), _BESSEL_ARG_LIMIT)   # a larger z raises in the call
    iv = bessel_i_sequence(16 + int(2.0 * size + 6.0 * math.sqrt(size)), z)
    # harmonic k of K_aa carries I_{k-2}: two orders past the tail of I_k
    kmax = max(int(np.argmax(np.abs(iv) <= _SERIES_TAIL_RTOL * iv[0])) + 1, 4)

    orders = np.arange(1, kmax + 1)
    decay = np.exp(-nu * orders * orders * x)
    cosine = np.cos(orders[:, None] * (grid.tau[None, :] - ic.phase))

    def assemble(coeffs):    # harmonics 0 .. kmax
        return coeffs[0] + 2.0 * (coeffs[1:] * decay) @ cosine

    # dI_k/dz = (I_{k-1} + I_{k+1})/2,  d2I_k/dz2 = (I_{k-2} + 2 I_k + I_{k+2})/4
    # on k = 0 .. kmax, read from I_{-2} .. I_{kmax+2} with I_{-k} = I_k
    ext = np.concatenate((iv[2:0:-1], iv[:kmax + 3]))
    iv_d = 0.5 * (ext[1:kmax + 2] + ext[3:kmax + 4])
    iv_dd = 0.25 * (ext[:kmax + 1] + 2.0 * ext[2:kmax + 3] + ext[4:kmax + 5])

    s = ic.amplitude / nu
    return KernelField(k=assemble(iv[:kmax + 1]), k_a=s * assemble(iv_d),
                       k_aa=s * s * assemble(iv_dd))
