"""Exact shape-preserving fields on classified ducts.

On any duct whose log-area slope comes from the quadratic classifying
polynomial b, the stretched equation admits solutions that collapse onto
a single profile W of one similarity coordinate

    lam = tau * exp(-d/2) / sqrt(b(zeta)),

amplified by exp(d).  W obeys a second-order "factor" ODE in lam; on the
constant-flare branch (beta1 = -M, beta2 = 0) that ODE has a conserved
energy and W(lam) reduces to a quadrature, periodic when M < 0 and the
energy constant is negative.  This module builds W either way and
assembles the full field, including the beta2 correction bracket with
its area integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from ._quadrature import adaptive_quad
from .errors import (BlowUpError, ConfigError, CoverageError, DomainError,
                     HornWaveError, RangeOverflowError, SingularProfileError)
from .grid import TauGrid
from .profiles import classifying_b, d_of_zeta
from .rg import PhysParams

_BLOW_UP_LIMIT = 1e8
_ORBIT_SAMPLES = 4097      # theta samples across one half orbit


def similarity_vars(betas, zeta, tau):
    """Collapse (zeta, tau) to the similarity coordinate and log-gain.

    Returns ``(lam, d)`` with ``lam = tau * exp(-d/2) / sqrt(b(zeta))``
    and ``d`` the accumulated log of mu/nu.  ``tau`` may be an array;
    ``zeta`` is a single station with b > 0 on [0, zeta].
    """
    if zeta < 0.0:
        raise DomainError("zeta must be >= 0")
    d = d_of_zeta(betas, zeta)
    b = classifying_b(betas, zeta)
    if b <= 0.0:
        raise SingularProfileError(
            f"classifying polynomial b({zeta:g}) = {b:g} is not positive")
    scale = math.exp(-0.5 * d) / math.sqrt(b)
    lam = np.asarray(tau, dtype=float) * scale
    return (lam if np.ndim(tau) else float(lam)), d


@dataclass(frozen=True)
class InvariantConfig:
    """Duct betas, medium constants, and the data selecting one profile W.

    Either ODE initial data (w0, w0_slope) or the energy constant c0 of
    the quadrature branch must be given; c1 shifts the lam origin.
    """

    betas: tuple
    params: PhysParams
    w0: float | None = None
    w0_slope: float | None = None
    c0: float | None = None
    c1: float = 0.0

    def __post_init__(self):
        b0 = self.betas[0]
        m = self.betas[3]
        if b0 <= 0:
            raise ConfigError("beta0 must be positive")
        if m == 0:
            raise ConfigError("the flare index M must be nonzero")
        if self.params.a <= 0:
            raise ConfigError(
                "shape-preserving assembly needs a > 0 (the bracket divides by a)")
        if (self.w0 is None or self.w0_slope is None) and self.c0 is None:
            raise ConfigError("provide ODE data (w0, w0_slope) or the constant c0")


@dataclass(frozen=True)
class ShapeTable:
    """Dense W(lam) over [lambda_min, lambda_max] from the factor ODE."""

    lambda_min: float
    lambda_max: float
    _forward: object = field(repr=False)
    _backward: object = field(repr=False)

    def _eval(self, lam, row):
        arr = np.asarray(lam, dtype=float)
        slack = 1e-12 * (self.lambda_max - self.lambda_min)
        if np.any(arr < self.lambda_min - slack) \
                or np.any(arr > self.lambda_max + slack):
            raise CoverageError(
                f"lam outside the integrated span "
                f"[{self.lambda_min:g}, {self.lambda_max:g}]")
        flat = np.clip(np.atleast_1d(arr).ravel(),
                       self.lambda_min, self.lambda_max)
        out = np.empty_like(flat)
        pos = flat >= 0.0
        if np.any(pos):
            out[pos] = self._forward(flat[pos])[row]
        if np.any(~pos):
            out[~pos] = self._backward(flat[~pos])[row]
        out = out.reshape(arr.shape)
        return out if np.ndim(lam) else float(out)

    def __call__(self, lam):
        return self._eval(lam, 0)

    def slope(self, lam):
        return self._eval(lam, 1)


def integrate_factor_ode(config: InvariantConfig, lambda_max, *,
                         lambda_min=0.0, rtol=1e-10, atol=1e-10):
    """March the factor ODE out of lam = 0.

        nu W'' + a (W')^2 + (M + beta1) (lam/2) W' - M W
            + (beta0 beta2 / 4a) lam^2 = 0

    The initial data are the config's (w0, w0_slope).  Uses an embedded
    5(4) pair with dense output so the table can be sampled anywhere on
    [lambda_min, lambda_max]; pass lambda_min < 0 to also cover the
    negative side (the default span is forward only).  |W| passing 1e8
    stops the march and reports the escape lam.
    """
    w0, w0_slope = config.w0, config.w0_slope
    if w0 is None or w0_slope is None:
        raise ConfigError("factor ODE needs initial data (w0, w0_slope)")
    if lambda_max <= 0:
        raise ConfigError("lambda_max must be positive")
    if lambda_min > 0:
        raise ConfigError("lambda_min cannot be positive (the march starts at 0)")
    # the returned table is the dense interpolant, and its between-node
    # equation defect, not the node error, is what callers see; capping
    # the step keeps that defect near 1e-9 instead of 1e-7
    max_step = lambda_max / 256.0

    b0, b1, b2, m = config.betas
    a = config.params.a
    nu = config.params.nu
    forcing = b0 * b2 / (4.0 * a)

    def rhs(lam, y):
        w, s = y
        return (s, (m * w - a * s * s - 0.5 * (m + b1) * lam * s
                    - forcing * lam * lam) / nu)

    def escape(lam, y):
        return abs(y[0]) - _BLOW_UP_LIMIT

    escape.terminal = True

    ends = [lambda_max] + ([lambda_min] if lambda_min < 0 else [])
    branches = []
    for end in ends:
        sol = solve_ivp(rhs, (0.0, end), (float(w0), float(w0_slope)),
                        method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=escape, max_step=max_step)
        if sol.t_events[0].size:
            lam_esc = float(sol.t_events[0][0])
            raise BlowUpError(
                f"|W| reached {_BLOW_UP_LIMIT:g} at lam = {lam_esc:g}",
                escape=lam_esc)
        if not sol.success:
            # typical cause: a logarithmic downward escape, where W drifts to
            # -inf too slowly to trip the |W| event but the step underflows
            raise HornWaveError(
                f"factor ODE stalled at lam = {sol.t[-1]:g}: {sol.message}")
        branches.append(sol.sol)
    backward = branches[1] if len(branches) > 1 else None
    return ShapeTable(float(lambda_min), float(lambda_max),
                      branches[0], backward)


@dataclass(frozen=True)
class OrbitTable:
    """One periodic orbit of the conserved-energy quadrature.

    Callable for W(lam) anywhere (the orbit repeats), with the bottom
    turning point sitting at lam = phase.
    """

    w_bottom: float
    w_top: float
    period: float
    phase: float
    _spline: CubicSpline = field(repr=False)

    def _fold(self, lam):
        arr = np.asarray(lam, dtype=float) - self.phase
        folded = np.mod(arr, self.period)
        mirror = folded > 0.5 * self.period
        folded = np.where(mirror, self.period - folded, folded)
        return np.clip(folded, 0.0, 0.5 * self.period), mirror

    def __call__(self, lam):
        folded, _ = self._fold(lam)
        out = self._spline(folded)
        return out if np.ndim(lam) else float(out)

    def slope(self, lam):
        folded, mirror = self._fold(lam)
        out = np.where(mirror, -1.0, 1.0) * self._spline(folded, 1)
        return out if np.ndim(lam) else float(out)


def first_integral_solution(m, a, c0, *, c1=0.0, nu=1.0):
    """Quadrature of the conserved-energy form of the factor ODE.

    On the constant-flare branch (beta1 = -M, beta2 = 0) the ODE
    integrates once to (W')^2 = R(W) with

        R(W) = c0 exp(-2 a W / nu) + (M / 2 a^2) (2 a W - nu),

    so lam(W) is the crossing-time integral of 1/sqrt(R).  R is strictly
    concave, its two simple roots bound the periodic orbit, and the
    angular substitution W = mid - half*cos(theta) turns both
    inverse-square-root endpoints into a smooth integrand sampled densely
    in theta.  Returns an :class:`OrbitTable` (period = twice the
    half-orbit integral).
    """
    if a <= 0:
        raise ConfigError("a must be positive")
    if nu <= 0:
        raise ConfigError("nu must be positive")

    def radicand(w):
        # exp overflows only where R is -inf, far below the lower turning point
        with np.errstate(over="ignore"):
            return c0 * np.exp((-2.0 * a / nu) * w) \
                + (m / (2.0 * a * a)) * (2.0 * a * w - nu)

    def radicand_slope(w):
        return (-2.0 * a / nu) * c0 * np.exp((-2.0 * a / nu) * w) + m / a

    def out_of_range(what):
        return RangeOverflowError(
            f"the orbit's {what} the double range at "
            f"a = {a:g}, nu = {nu:g}, M = {m:g}, c0 = {c0:g}")

    if m >= 0 or c0 >= 0:
        raise ConfigError(
            "bounded orbits need M < 0 and c0 < 0; got "
            f"M = {m:g}, c0 = {c0:g}")
    # R'' < 0 everywhere, so R > 0 on a single interval when the peak is
    # positive; the peak is where the two slope terms balance.
    denominator = 2.0 * a * a * c0
    balance = m * nu / denominator if denominator else math.inf
    if not (0.0 < balance < math.inf and math.isfinite(m / (2.0 * a * a))):
        raise out_of_range("turning points leave")
    w_star = -(nu / (2.0 * a)) * math.log(balance)
    if radicand(w_star) <= 0.0:
        raise ConfigError("radicand never positive: no orbit for this c0")

    def bracketed_root(direction):
        step = 1.0
        probe = w_star + direction * step
        while radicand(probe) > 0.0:
            step *= 2.0
            probe = w_star + direction * step
        lo, hi = sorted((w_star, probe))
        return brentq(radicand, lo, hi, xtol=1e-15, rtol=8.9e-16)

    w_bot = bracketed_root(-1.0)
    w_top = bracketed_root(+1.0)

    mid = 0.5 * (w_top + w_bot)
    half = 0.5 * (w_top - w_bot)
    theta = np.linspace(0.0, math.pi, _ORBIT_SAMPLES)
    w = mid - half * np.cos(theta)
    # R(W) = (W - w_bot)(w_top - W) h(W) with h smooth and positive, and
    # (W - w_bot)(w_top - W) = half^2 sin^2/theta under the substitution,
    # so dW / sqrt(R) = dtheta / sqrt(h).
    h = np.empty_like(w)
    with np.errstate(all="ignore"):
        span = (w[1:-1] - w_bot) * (w_top - w[1:-1])
        h[1:-1] = radicand(w[1:-1]) / span
        h[0] = radicand_slope(w_bot) / (2.0 * half)
        h[-1] = -radicand_slope(w_top) / (2.0 * half)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(span))):
        raise out_of_range("crossing-time integrand leaves")
    if np.any(h <= 0.0):
        raise ConfigError("turning points are not simple; orbit degenerates")
    lam = cumulative_simpson(1.0 / np.sqrt(h), x=theta, initial=0.0)
    period = 2.0 * float(lam[-1])
    # clamped ends: W'(lam) vanishes exactly at the turning points
    with np.errstate(all="ignore"):
        spline = CubicSpline(lam, w, bc_type=((1, 0.0), (1, 0.0)))
    if not np.all(np.isfinite(spline.c)):
        raise out_of_range("spline table leaves")
    return OrbitTable(float(w_bot), float(w_top), period, float(c1), spline)


def nested_area_integral(betas, zeta):
    """Area term of the beta2 bracket, one adaptive quadrature a station.

    F = integral_0^zeta exp(-d(z))/b(z) integral_0^z exp(d(y)) dy dz, and
    since d' = M/b, one integration by parts leaves a single integral,
    F = -(1/M) integral_0^zeta expm1(d(y) - d(zeta)) dy (M != 0).
    """
    if zeta == 0.0:
        return 0.0
    if zeta < 0.0:
        raise DomainError("zeta must be >= 0")
    d_end = d_of_zeta(betas, zeta)
    return -adaptive_quad(lambda y: math.expm1(d_of_zeta(betas, y) - d_end),
                          0.0, zeta, rtol=1e-10) / betas[3]


def assemble_invariant_q(config: InvariantConfig, zeta, tau_grid: TauGrid,
                         w_table):
    """Evaluate the shape-preserving field at one station or several.

        q = e^d [ W(lam) - (beta2 / 2a) (zeta lam^2 / 2 + nu F(zeta)) ]

    ``w_table`` is any callable W(lam) (ODE table or orbit); it is called
    once, on the stacked lam of every station.  ``zeta`` may be a 1-d
    array of stations, giving one row per station; a scalar gives one
    row.  With beta2 = 0 the bracket collapses to W alone; at zeta = 0
    both the gain and the correction vanish and q is W(tau / sqrt(beta0)).
    """
    zetas = np.atleast_1d(np.asarray(zeta, dtype=float))
    lam, d = zip(*(similarity_vars(config.betas, z, tau_grid.tau)
                   for z in zetas))
    lam = np.stack(lam)
    gain = np.array([math.exp(di) for di in d])[:, None]
    w = np.asarray(w_table(lam), dtype=float)
    b2 = config.betas[2]
    if b2 == 0.0:
        q = gain * w
    else:
        a = config.params.a
        nu = config.params.nu
        area = np.array([nested_area_integral(config.betas, z)
                         for z in zetas])[:, None]
        correction = 0.5 * zetas[:, None] * lam * lam + nu * area
        q = gain * (w - (b2 / (2.0 * a)) * correction)
    return q if np.ndim(zeta) else q[0]
