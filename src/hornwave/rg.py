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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BreakdownError, DomainError, QuadratureError
from .grid import TauGrid
from .kernel import InitialCondition, KernelField, kernel_quadrature
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

    @property
    def reynolds(self):
        return self.a / self.nu


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
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(u != 0.0, u * np.log(np.abs(arg)), 0.0)
    return 1.0 - kvals + term


def first_order(params: PhysParams, profile: Profile, ic: InitialCondition,
                x, grid: TauGrid, *, quad_rtol=1e-6,
                outer_kernel: Optional[KernelField] = None):
    """Gradient-corrected field at station x."""
    x = float(x)
    if outer_kernel is None:
        outer_kernel = kernel_quadrature(ic, params.a, params.nu, x, grid)
    if params.a == 0.0:
        return params.nu * outer_kernel.k_a   # correction is O(a^2)
    mu = profile.mu(params.nu, x)
    nu = params.nu

    cache = {}

    def field_spec(xp):
        if xp not in cache:
            kf = kernel_quadrature(ic, params.a, nu, xp, grid)
            mu_p = profile.mu(nu, xp)
            cache[xp] = np.fft.rfft(_bracket(kf.k, mu_p / nu))
        return cache[xp]

    correction = _convolved_path_integral(
        profile.mu_x_over_mu, field_spec, x, grid, nu, rtol=quad_rtol)

    combined = (nu / mu) * (outer_kernel.k - 1.0 - correction)
    _log_argument_or_raise(1.0 + combined, x, grid, "first-order")
    return (mu / params.a) * np.log1p(combined)


def perturbative(params: PhysParams, profile: Profile, ic: InitialCondition,
                 x, grid: TauGrid, *, quad_rtol=1e-6):
    """Small-amplitude expansion through O(a); no logarithms, no breakdown."""
    x = float(x)
    nu = params.nu
    base = kernel_quadrature(ic, 0.0, nu, x, grid)
    lead = nu * base.k_a
    if params.a == 0.0:
        return lead
    mu = profile.mu(nu, x)

    cache = {}

    def field_spec(xp):
        if xp not in cache:
            kf = kernel_quadrature(ic, 0.0, nu, xp, grid)
            cache[xp] = np.fft.rfft(kf.k_a * kf.k_a)
        return cache[xp]

    def weight(xp):
        return profile.mu_x_over_mu(xp) * nu / profile.mu(nu, xp)

    tail = _convolved_path_integral(weight, field_spec, x, grid, nu,
                                    rtol=quad_rtol)
    half = base.k_aa - (nu / mu) * base.k_a * base.k_a - tail
    return lead + 0.5 * nu * params.a * half


def _convolved_path_integral(weight, field_spec, x, grid: TauGrid, nu,
                             *, rtol):
    """integral_0^x w(x') [G(x - x') * f(x', .)](tau) dx' on the grid.

    f enters as its rfft via field_spec(x'); the Gaussian acts as exact
    spectral decay.  Composite Simpson on a mesh graded toward x' = x
    (the decay factor steepens there for high modes), Richardson-checked
    and extrapolated.
    """
    if x == 0.0:
        return np.zeros(grid.n)
    kappa2 = grid.wavenumbers() ** 2

    edges = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 1.0]) * x

    def simpson(per_block):
        total = np.zeros(kappa2.size, dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes = np.linspace(lo, hi, 2 * per_block + 1)
            h = (hi - lo) / (2 * per_block)
            coeff = np.ones(nodes.size)
            coeff[1:-1:2] = 4.0
            coeff[2:-1:2] = 2.0
            for xp, c in zip(nodes, coeff):
                total += (c * h / 3.0 * weight(xp)
                          * field_spec(xp) * np.exp(-nu * kappa2 * (x - xp)))
        return total

    per_block = max(_QUAD_BASE_PANELS // (edges.size - 1), 4)
    coarse = simpson(per_block)
    for _ in range(_QUAD_MAX_DOUBLINGS):
        per_block *= 2
        fine = simpson(per_block)
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
    if "q0" in fields or "q1" in fields:
        kernel = kernel_quadrature(ic, params.a, params.nu, x, grid)
    if "q0" in fields:
        out["q0"] = zero_order(params, profile, kernel)
    if "q1" in fields:
        out["q1"] = first_order(params, profile, ic, x, grid,
                                quad_rtol=quad_rtol, outer_kernel=kernel)
    if "qpt" in fields:
        out["qpt"] = perturbative(params, profile, ic, x, grid,
                                  quad_rtol=quad_rtol)
    return RGSolution(x=x, grid=grid, **out)
