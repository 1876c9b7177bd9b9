"""Approximate analytic solutions for slowly varying channels.

Three fields at a station, each a function of (params, profile, ic, x, grid):

  zero_order    (mu/a) log[(1 - nu/mu) + (nu/mu) K]; on a constant channel
                the exact Cole-Hopf field (nu/a) log K
  first_order   the same log, of K less a path integral correcting for the
                variation of the absorption mu(x) along the channel
  perturbative  the small-amplitude expansion of first_order through O(a)

One helper forms the log argument from K itself, never from K - 1, so it
keeps its precision where K is tiny.  The argument going non-positive marks
the physical limit of the approximation; that is always an error here,
never a clamp.  The single exception is the log inside the first-order path
integrand, which is evaluated through its continuous (real-part) extension:
the integrand must stay integrable across a breakdown window even when
stations beyond it are perfectly regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BreakdownError, ConfigError, DomainError, QuadratureError,
                     RangeOverflowError)
from .grid import TauGrid
from .kernel import (InitialCondition, heat_smoother, kernel_k,
                     kernel_quadrature)
from .profiles import Profile

_QUAD_BASE_PANELS = 64
_QUAD_MAX_DOUBLINGS = 4
# Samples a chunk of path-integral nodes spans on the caller's grid.  A
# chunk pays numpy's per-call overhead once; at n = 256 that overhead is
# most of a node's cost, and chunks of 16 nodes cut q1 and qpt about 3x.
# At n = 4096 a chunk is one node: chunks of two made qpt, whose arrays
# span 2n, slower there.
_PATH_SAMPLES = 4096


@dataclass(frozen=True)
class PhysParams:
    """Dimensionless nonlinearity a and dissipation nu; a/nu is the
    acoustic Reynolds number."""

    a: float
    nu: float

    def __post_init__(self):
        if self.nu <= 0.0:
            raise DomainError(f"dissipation must be positive, got {self.nu:g}")
        if self.a < 0.0:
            raise DomainError(f"nonlinearity must be >= 0, got {self.a:g}")


@dataclass(frozen=True)
class RGSolution:
    """Analytic fields at one station."""

    x: float
    grid: TauGrid
    q0: Optional[np.ndarray] = None
    q1: Optional[np.ndarray] = None
    qpt: Optional[np.ndarray] = None


def _log_argument(k, nu_over_mu, correction=0.0):
    """1 + (nu/mu)(K - C - 1), formed from K: it is K - C where nu = mu."""
    return (1.0 - nu_over_mu) + nu_over_mu * (k - correction)


def _log_field(params, mu, k, x, grid, label, correction=0.0):
    arg = _log_argument(k, params.nu / mu, correction)
    bad = np.nonzero(arg <= 0.0)[0]
    if bad.size:
        i = int(bad[0])     # the argument is positive where K - C > 1 - mu/nu
        lowest = "min K" if np.ndim(correction) == 0 else "min(K - C)"
        raise BreakdownError(
            f"{label} logarithm argument {arg[i]:.3e} <= 0 at "
            f"x = {x:g}, tau = {grid.tau[i]:.6g}: {lowest} = "
            f"{np.min(k - correction):.3e} is not above 1 - mu/nu = "
            f"{1.0 - mu / params.nu:.3e}; the approximation has broken down "
            "here", x=x, tau=float(grid.tau[i]))
    return (mu / params.a) * np.log(arg)


def _linear_field(ic: InitialCondition, nu, x, grid: TauGrid):
    """The a = 0 limit of q0, q1 and qpt alike: nu K_a, with K_a the heat
    smoothing of W/nu on the caller's grid, the linear heat solution."""
    if x < 0.0:
        raise DomainError(f"station must be >= 0, got {x:g}")
    return nu * heat_smoother(ic.sample(grid) / nu, grid, nu)(x)


def zero_order(params: PhysParams, profile: Profile, ic: InitialCondition,
               x, grid: TauGrid):
    """Leading-order field at station x, from K there."""
    x = float(x)
    if params.a == 0.0:
        return _linear_field(ic, params.nu, x, grid)
    kernel = kernel_quadrature(ic, params.a, params.nu, x, grid)
    return _log_field(params, profile.mu(params.nu, x), kernel.k, x, grid,
                      "zero-order")


def _bracket(kvals, nu_over_mu):
    """First-order path integrand in tau, continuously extended.

    With the zero-order argument r it is 1 - K + (mu/nu) r log|r|, whose
    real-part log keeps it continuous through the window where r crosses 0.
    """
    r = _log_argument(kvals, nu_over_mu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        term = np.where(r != 0.0, r * np.log(np.abs(r)), 0.0)
        return 1.0 - kvals + term / nu_over_mu


def first_order(params: PhysParams, profile: Profile, ic: InitialCondition,
                x, grid: TauGrid, *, quad_rtol=1e-6):
    """Gradient-corrected field at station x.

    The path integral reads K alone, at its nodes and at x, from one K
    evaluator built for the station.  At a = 0 the correction is O(a^2).
    """
    x, nu = float(x), params.nu
    if params.a == 0.0:
        return zero_order(params, profile, ic, x, grid)
    if not grid.periodic:
        raise ConfigError("q1 needs a periodic grid at a > 0: its path "
                          "integral is spectral, and this grid is windowed")
    k_at = kernel_k(ic, params.a, nu, grid)
    k_x = k_at(x)                       # checks the station
    mu = profile.mu(nu, x)

    def node_field(xps, mu_ps):
        if xps[-1] == x:        # x' = x ends the first level: K is k_x
            k = np.vstack((k_at(xps[:-1]), k_x))
        else:
            k = k_at(xps)
        return _bracket(k, (nu / mu_ps)[:, None])

    correction = _convolved_path_integral(profile, node_field, x, grid, nu,
                                          rtol=quad_rtol)
    return _log_field(params, mu, k_x, x, grid, "first-order", correction)


def perturbative(params: PhysParams, profile: Profile, ic: InitialCondition,
                 x, grid: TauGrid, *, quad_rtol=1e-6):
    """Small-amplitude expansion through O(a); no logarithms, no breakdown.

    It needs the kernel only at a = 0, where K = 1 and the a-derivatives
    K_a, K_aa are heat smoothings of W/nu and (W/nu)^2.  W is sampled on
    the twice refined grid, so that its square does not alias, and both
    are decimated back to the caller's grid.  Periodic grids only.
    """
    x, nu = float(x), params.nu
    if x < 0.0:
        raise DomainError(f"station must be >= 0, got {x:g}")
    if not grid.periodic:
        raise ConfigError("qpt needs a periodic grid: its path integral and "
                          "heat propagation are spectral, and this grid is "
                          "windowed")
    if params.a == 0.0:
        return _linear_field(ic, nu, x, grid)
    fine = grid.refined(2)
    wn = ic.sample(fine) / nu
    k_a = heat_smoother(wn, fine, nu)
    base_a = k_a(x)[::2]
    base_aa = heat_smoother(wn * wn, fine, nu)(x)[::2]
    tail = _convolved_path_integral(
        profile,
        lambda xps, mu_ps: (nu / mu_ps)[:, None] * k_a(xps)[:, ::2] ** 2,
        x, grid, nu, rtol=quad_rtol)
    half = base_aa - (nu / profile.mu(nu, x)) * base_a * base_a - tail
    return nu * base_a + 0.5 * nu * params.a * half


def _convolved_path_integral(profile: Profile, node_field, x, grid: TauGrid,
                             nu, *, rtol):
    """integral_0^x (mu_x/mu)(x') [G(x - x') * f(x', .)](tau) dx' on the grid.

    f comes from node_field(nodes, mu(nodes)), one row per node; the
    Gaussian acts as exact spectral decay.  Five uniform blocks grade the
    mesh toward x' = x, where the decay steepens for high modes.  Each level
    halves every panel of the trapezoid sum in place,
    T_{h/2} = T_h/2 + (h/2) sum f(new midpoints), so each node is evaluated
    once and the profile is asked once per level.  A level's nodes go to
    node_field in chunks of _PATH_SAMPLES // n, which share one rfft and
    one decay product; their terms join the sum one by one, in node order.
    Simpson, (4 T_{h/2} - T_h)/3, is Richardson-checked and extrapolated.
    """
    if x == 0.0:
        return np.zeros(grid.n)
    rate = -nu * grid.wavenumbers() ** 2
    edges = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 1.0]) * x
    widths = np.diff(edges)
    chunk = max(_PATH_SAMPLES // grid.n, 1)

    def mesh(count):   # `count` panels a block, without the node x' = x
        return (edges[:-1, None]
                + np.arange(count) * (widths / count)[:, None]).ravel()

    def node_sum(nodes, coeff):
        total = np.zeros(rate.size, dtype=complex)
        weights = coeff * profile.mu_x_over_mu(nodes)
        mus = profile.mu(nu, nodes)
        for lo in range(0, nodes.size, chunk):
            part = slice(lo, lo + chunk)
            with np.errstate(over="ignore", invalid="ignore"):
                spec = np.fft.rfft(node_field(nodes[part], mus[part]))
            if not np.isfinite(spec).all():
                bad = nodes[part][np.isfinite(spec).all(axis=1).argmin()]
                raise RangeOverflowError(
                    f"path integrand at x' = {bad:g} overflows the double "
                    "range")
            decay = np.exp(rate * (x - nodes[part, None]))
            for term in weights[part, None] * spec * decay:
                total += term
        return total

    panels = max(_QUAD_BASE_PANELS // widths.size, 4)
    h = np.repeat(widths / panels, panels)   # a node weighs half of each side
    trap = node_sum(np.append(mesh(panels), x), np.convolve(h, [0.5, 0.5]))
    coarse = None
    for _ in range(_QUAD_MAX_DOUBLINGS + 1):
        half = 0.5 * trap + node_sum(mesh(2 * panels)[1::2],
                                     np.repeat(widths / (2 * panels), panels))
        fine = (4.0 * half - trap) / 3.0
        trap, panels = half, 2 * panels
        if coarse is not None:
            err = np.max(np.abs(np.fft.irfft(fine - coarse, n=grid.n))) / 15.0
            scale = max(np.max(np.abs(np.fft.irfft(fine, n=grid.n))), 1e-14)
            if err <= rtol * scale:
                return np.fft.irfft(fine + (fine - coarse) / 15.0, n=grid.n)
        coarse = fine
    raise QuadratureError(
        f"path integral did not converge to {rtol:g} relative "
        f"(achieved {err / scale:.3e})", achieved=err / scale, target=rtol)


def evaluate_station(params: PhysParams, profile: Profile,
                     ic: InitialCondition, x, grid: TauGrid,
                     fields=("q0", "q1", "qpt"), *, quad_rtol=1e-6):
    """Requested analytic fields at one station."""
    x = float(x)
    out = {}
    if "q0" in fields:
        out["q0"] = zero_order(params, profile, ic, x, grid)
    if "q1" in fields:
        out["q1"] = first_order(params, profile, ic, x, grid,
                                quad_rtol=quad_rtol)
    if "qpt" in fields:
        out["qpt"] = perturbative(params, profile, ic, x, grid,
                                  quad_rtol=quad_rtol)
    return RGSolution(x=x, grid=grid, **out)
