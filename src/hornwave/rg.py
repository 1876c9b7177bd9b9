"""Approximate analytic solutions for slowly varying channels.

Three fields, all built from the kernel module:

  zero_order    (mu/a) log[1 + (nu/mu)(K - 1)], exact on constant channels
  first_order   zero_order plus a path integral correcting for the
                variation of the absorption mu(x) along the channel
  perturbative  the small-amplitude expansion of first_order through O(a)

The logarithm argument going non-positive marks the physical limit of the
approximation; that is always an error here, never a clamp.  The single
exception is the log inside the first-order path integrand, which is
evaluated through its continuous (real-part) extension: the integrand must
stay integrable across a breakdown window even when stations beyond it are
perfectly regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BreakdownError, ConfigError, DomainError, QuadratureError,
                     RangeOverflowError)
from .grid import TauGrid
from .kernel import (InitialCondition, KernelField, heat_smoother, kernel_k,
                     kernel_quadrature)
from .profiles import Profile

_QUAD_BASE_PANELS = 64
_QUAD_MAX_DOUBLINGS = 4


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


def _log_argument_or_raise(arg, x, grid, label):
    bad = np.nonzero(arg <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        raise BreakdownError(
            f"{label} logarithm argument {arg[i]:.3e} <= 0 at "
            f"x = {x:g}, tau = {grid.tau[i]:.6g}; the approximation has "
            "broken down here", x=x, tau=float(grid.tau[i]))


def zero_order(params: PhysParams, profile: Profile, kernel: KernelField):
    """Leading-order field from a precomputed kernel at its station."""
    x, grid = kernel.x, kernel.grid
    mu = profile.mu(params.nu, x)
    if params.a == 0.0:
        return params.nu * kernel.k_a      # linear heat solution
    eps = (params.nu / mu) * (kernel.k - 1.0)
    _log_argument_or_raise(1.0 + eps, x, grid, "zero-order")
    return (mu / params.a) * np.log1p(eps)


def _bracket(kvals, mu_over_nu):
    """First-order path integrand in tau, continuously extended.

    u log|arg| is the real part of u log(arg); it keeps the integrand
    continuous through the window where arg crosses zero.
    """
    u = kvals - 1.0 + mu_over_nu
    arg = u / mu_over_nu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        term = np.where(u != 0.0, u * np.log(np.abs(arg)), 0.0)
        return 1.0 - kvals + term


def first_order(params: PhysParams, profile: Profile, ic: InitialCondition,
                x, grid: TauGrid, *, quad_rtol=1e-6,
                outer_kernel: Optional[KernelField] = None):
    """Gradient-corrected field at station x.

    The path integral reads K alone at its nodes, from one K evaluator
    built for the station, which also gives K at x' = x unless the
    station's own kernel is passed in.
    """
    x, nu = float(x), params.nu
    if x < 0.0:
        raise DomainError(f"station must be >= 0, got {x:g}")
    if params.a > 0.0 and not grid.periodic:
        raise ConfigError("q1 needs a periodic grid at a > 0: its path "
                          "integral is spectral, and this grid is windowed")
    if params.a == 0.0:   # the correction is O(a^2)
        kernel = outer_kernel or kernel_quadrature(ic, 0.0, nu, x, grid)
        return nu * kernel.k_a
    mu = profile.mu(nu, x)
    k_at = kernel_k(ic, params.a, nu, grid)
    k_x = k_at(x) if outer_kernel is None else outer_kernel.k

    def node_field(xp, mu_p):
        return _bracket(k_x if xp == x else k_at(xp), mu_p / nu)

    correction = _convolved_path_integral(profile, node_field, x, grid, nu,
                                          rtol=quad_rtol)
    combined = (nu / mu) * (k_x - 1.0 - correction)
    _log_argument_or_raise(1.0 + combined, x, grid, "first-order")
    return (mu / params.a) * np.log1p(combined)


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
    fine = grid.refined(2)
    wn = ic.sample(fine) / nu
    k_a = heat_smoother(wn, fine, nu, True)
    base_a = k_a(x)[::2]
    if params.a == 0.0:
        return nu * base_a
    base_aa = heat_smoother(wn * wn, fine, nu, True)(x)[::2]
    tail = _convolved_path_integral(
        profile, lambda xp, mu_p: (nu / mu_p) * k_a(xp)[::2] ** 2, x, grid, nu,
        rtol=quad_rtol)
    half = base_aa - (nu / profile.mu(nu, x)) * base_a * base_a - tail
    return nu * base_a + 0.5 * nu * params.a * half


def _convolved_path_integral(profile: Profile, node_field, x, grid: TauGrid,
                             nu, *, rtol):
    """integral_0^x (mu_x/mu)(x') [G(x - x') * f(x', .)](tau) dx' on the grid.

    f comes from node_field(x', mu(x')); the Gaussian acts as exact spectral
    decay.  Five uniform blocks grade the mesh toward x' = x, where the
    decay steepens for high modes.  Each level halves every panel of the
    trapezoid sum in place, T_{h/2} = T_h/2 + (h/2) sum f(new midpoints), so
    each node is evaluated once and the profile is asked once per level.
    Simpson, (4 T_{h/2} - T_h)/3, is Richardson-checked and extrapolated.
    """
    if x == 0.0:
        return np.zeros(grid.n)
    kappa2 = grid.wavenumbers() ** 2
    edges = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 1.0]) * x
    widths = np.diff(edges)

    def mesh(count):   # `count` panels a block, without the node x' = x
        return (edges[:-1, None]
                + np.arange(count) * (widths / count)[:, None]).ravel()

    def node_sum(nodes, coeff):   # a running sum: no spectra are stacked
        total = np.zeros(kappa2.size, dtype=complex)
        weights = coeff * profile.mu_x_over_mu(nodes)
        for xp, c, mu_p in zip(nodes, weights, profile.mu(nu, nodes)):
            field = node_field(xp, mu_p)
            with np.errstate(over="ignore", invalid="ignore"):
                spec = np.fft.rfft(field)
            if not np.all(np.isfinite(spec)):
                raise RangeOverflowError(
                    f"path integrand at x' = {xp:g} overflows the double range")
            total += c * spec * np.exp(-nu * kappa2 * (x - xp))
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
    """Requested analytic fields at one station, sharing the outer kernel."""
    x = float(x)
    out = {}
    kernel = None
    if "q0" in fields:
        kernel = kernel_quadrature(ic, params.a, params.nu, x, grid)
        out["q0"] = zero_order(params, profile, kernel)
    if "q1" in fields:     # builds the kernel itself, after its grid check
        out["q1"] = first_order(params, profile, ic, x, grid,
                                quad_rtol=quad_rtol, outer_kernel=kernel)
    if "qpt" in fields:
        out["qpt"] = perturbative(params, profile, ic, x, grid,
                                  quad_rtol=quad_rtol)
    return RGSolution(x=x, grid=grid, **out)
