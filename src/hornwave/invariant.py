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

from ._quadrature import adaptive_quad
from .errors import (BlowUpError, ConfigError, CoverageError, DomainError,
                     HornWaveError, RangeOverflowError, SingularProfileError)
from .grid import TauGrid
from .profiles import _HermiteTable, classifying_b, d_of_zeta
from .rg import PhysParams

_BLOW_UP_LIMIT = 1e8
_ORBIT_SAMPLES = 4097      # theta samples across one half orbit

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, sec. II.5) as scipy's RK45 holds it: stage
# nodes, stage rows, fifth-order weights, error weights (fifth minus
# embedded fourth order, over the seven stages with the FSAL one) and the
# quartic dense output of Shampine (Math. Comp. 46, 1986).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# step controller: safety factor, the step's largest cut and growth, and
# the error exponent -1/(q + 1) of the embedded order q = 4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1.0 / 5.0


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


class _DenseBranch:
    """The quartic dense output of one march, step by step.

    ``lam[k]`` ends step k; a point on a step boundary reads the step that
    ends there, and points beyond the march read its last step.  Called
    with an array of lam, it returns the rows W and W' there.
    """

    def __init__(self, lam, y_old, coef):
        self._reach = np.abs(lam[1:])      # distance from 0, ascending
        self._lam_old = lam[:-1]
        self._h = np.diff(lam)
        self._y_old = np.array(y_old)
        self._coef = np.array(coef)        # (steps, 2, 4)

    def __call__(self, lam):
        k = np.minimum(np.searchsorted(self._reach, np.abs(lam)),
                       self._h.size - 1)
        h = self._h[k]
        x = (lam - self._lam_old[k]) / h
        powers = np.cumprod(np.broadcast_to(x, (4,) + x.shape), axis=0)
        return (h * np.einsum("kij,jk->ik", self._coef[k], powers)
                + self._y_old[k].T)


def _rms(v):
    return math.sqrt(v @ v) / math.sqrt(v.size)


def _dormand_prince(rhs, y, end, rtol, atol, max_step):
    """March ``y' = rhs(lam, y)`` from lam = 0 to ``end`` (either sign).

    scipy's RK45 step by step: its tableau, its RMS error norm scaled by
    atol + rtol * max(|y_old|, |y_new|), its step controller and
    initial-step rule, and ``max_step``.  Returns the dense output; |W|
    crossing the blow-up limit raises BlowUpError at the crossing, and a
    step below ten ulp of lam raises the "stalled" HornWaveError.
    """
    sign = math.copysign(1.0, end)
    lam, f = 0.0, rhs(0.0, y)

    # initial step (Hairer, Norsett & Wanner, sec. II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(end))
    d2 = _rms((rhs(sign * h0, y + sign * h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15
          else (0.01 / max(d1, d2)) ** -_ERR_EXP)
    h_abs = min(100.0 * h0, h1, abs(end), max_step)

    stages = np.empty((7, y.size))
    lams, y_olds, coefs = [lam], [], []
    while sign * (lam - end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(lam, sign * math.inf) - lam)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # a NaN step stalls too
                # typical cause: a logarithmic downward escape, where W
                # drifts to -inf too slowly to reach the |W| limit
                raise HornWaveError(
                    f"factor ODE stalled at lam = {lam:g}: the step fell "
                    "below ten ulp of lam")
            lam_new = lam + sign * h_abs
            if sign * (lam_new - end) > 0.0:
                lam_new = end
            h = lam_new - lam
            h_abs = abs(h)
            stages[0] = f
            for i in range(1, 6):
                stages[i] = rhs(lam + _DP_C[i] * h,
                                y + (stages[:i].T @ _DP_A[i, :i]) * h)
            y_new = y + h * (stages[:6].T @ _DP_B)
            f_new = stages[6] = rhs(lam + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms((stages.T @ _DP_E) * h / scale)
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        lams.append(lam_new)
        y_olds.append(y)
        coefs.append(stages.T @ _DP_P)
        if abs(y_new[0]) >= _BLOW_UP_LIMIT > abs(y[0]):
            escape = _crossing(_DenseBranch(np.array([lam, lam_new]), [y],
                                            [coefs[-1]]), lam, lam_new)
            raise BlowUpError(
                f"|W| reached {_BLOW_UP_LIMIT:g} at lam = {escape:g}",
                escape=escape)
        lam, y, f = lam_new, y_new, f_new
    return _DenseBranch(np.array(lams), y_olds, coefs)


def _crossing(step, inside, outside):
    """Where |W| first reaches the blow-up limit inside one step: bisect
    the step's dense output, from the lam where |W| is below the limit and
    the one where it is not, down to adjacent doubles."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return outside
        if abs(step(np.array([mid]))[0, 0]) >= _BLOW_UP_LIMIT:
            outside = mid
        else:
            inside = mid


def integrate_factor_ode(config: InvariantConfig, lambda_max, *,
                         lambda_min=0.0, rtol=1e-10, atol=1e-10):
    """March the factor ODE out of lam = 0.

        nu W'' + a (W')^2 + (M + beta1) (lam/2) W' - M W
            + (beta0 beta2 / 4a) lam^2 = 0

    The initial data are the config's (w0, w0_slope).  Uses the
    Dormand-Prince 5(4) pair with its quartic dense output (the method of
    scipy's RK45) so the table can be sampled anywhere on [lambda_min,
    lambda_max]; pass lambda_min < 0 to also cover the negative side (the
    default span is forward only).  |W| reaching 1e8 stops the march and
    raises BlowUpError with the escape lam; a step that underflows raises
    HornWaveError ("stalled").
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
        return np.array((s, (m * w - a * s * s - 0.5 * (m + b1) * lam * s
                             - forcing * lam * lam) / nu))

    ends = [lambda_max] + ([lambda_min] if lambda_min < 0 else [])
    branches = [_dormand_prince(rhs, np.array((float(w0), float(w0_slope))),
                                float(end), rtol, atol, max_step)
                for end in ends]
    backward = branches[1] if len(branches) > 1 else None
    return ShapeTable(float(lambda_min), float(lambda_max),
                      branches[0], backward)


@dataclass(frozen=True)
class OrbitTable:
    """One periodic orbit of the conserved-energy quadrature.

    Callable for W(lam) anywhere (the orbit repeats), with the bottom
    turning point sitting at lam = phase.  It holds the reduced half orbit
    w(s), with W = w_scale * w and lam - phase = lam_scale * s.
    """

    w_bottom: float
    w_top: float
    period: float
    phase: float
    _table: _HermiteTable = field(repr=False)
    _w_scale: float = field(repr=False)
    _lam_scale: float = field(repr=False)

    def _fold(self, lam):
        half = self._table.x[-1]
        s = np.mod((np.asarray(lam, dtype=float) - self.phase)
                   / self._lam_scale, 2.0 * half)
        mirror = s > half
        return np.clip(np.where(mirror, 2.0 * half - s, s), 0.0, half), mirror

    def __call__(self, lam):
        s, _ = self._fold(lam)
        out = self._w_scale * self._table(s)
        return out if np.ndim(lam) else float(out)

    def slope(self, lam):
        s, mirror = self._fold(lam)
        out = np.where(mirror, -1.0, 1.0) * self._table(s, 1) \
            * (self._w_scale / self._lam_scale)
        return out if np.ndim(lam) else float(out)


def _turning_points(gamma):
    """The reduced orbit's bottom and top, 1/2 + W_k(2 gamma/e)/2, k = -1, 0.

    Real Lambert W on (-1/e, 0) (Corless et al., Adv. Comput. Math. 5, 1996)
    from the series in p = -+sqrt(2(e z + 1)) = -+sqrt(4 gamma + 2) near the
    branch point, else log(-z) - log(-log(-z)) and log1p(z), then four
    Halley steps (three reach rounding from every start).
    """
    z = 2.0 * gamma / math.e
    p = np.array([-1.0, 1.0]) * math.sqrt(4.0 * gamma + 2.0)
    log_z = math.log(-z)
    w = np.where(np.abs(p) < 1.0,
                 -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0))),
                 (log_z - math.log(-log_z), math.log1p(z)))
    for _ in range(4):
        ew = np.exp(w)
        f = w * ew - z
        w = w - f / (ew * (w + 1.0) - 0.5 * (w + 2.0) * f / (w + 1.0))
    return (0.5 + 0.5 * w).tolist()


def first_integral_solution(m, a, c0, *, c1=0.0, nu=1.0):
    """Quadrature of the conserved-energy form of the factor ODE.

    On the constant-flare branch (beta1 = -M, beta2 = 0) the ODE
    integrates once to (W')^2 = R(W) with

        R(W) = c0 exp(-2 a W / nu) + (M / 2 a^2) (2 a W - nu).

    With W = (nu/a) w and lam - c1 = sqrt(nu/|M|) s this is
    (dw/ds)^2 = r(w) = gamma exp(-2w) - w + 1/2, gamma = a^2 c0/(nu |M|):
    every orbit is the gamma-orbit rescaled, and one exists exactly when
    -1/2 < gamma < 0.  The angular substitution w = mid - half*cos(theta)
    turns both inverse-square-root endpoints of s(w) into a smooth
    integrand sampled densely in theta, and the table w(s) takes its
    exact slopes dw/ds = half sin(theta) sqrt(h) at the samples.
    """
    if a <= 0 or nu <= 0:
        raise ConfigError(f"a = {a:g} and nu = {nu:g} must be positive")
    if m >= 0 or c0 >= 0:
        raise ConfigError("bounded orbits need M < 0 and c0 < 0; got "
                          f"M = {m:g}, c0 = {c0:g}")

    def in_range(what, value):
        if not np.finfo(float).tiny <= abs(value) < math.inf:
            raise RangeOverflowError(
                f"the orbit's {what} = {value:g} leaves the double range at "
                f"a = {a:g}, nu = {nu:g}, M = {m:g}, c0 = {c0:g}")
        return value

    w_scale = in_range("height scale nu/a", nu / a)
    # nu/|M| itself may leave the range where its root does not
    lam_scale = in_range("time scale", math.sqrt(nu) / math.sqrt(-m))
    slope_scale = in_range("slope scale", w_scale / lam_scale)
    gamma = in_range("gamma = a^2 c0/(nu |M|)", c0 / slope_scale / slope_scale)
    if gamma <= -0.5:
        raise ConfigError(f"no orbit: gamma = a^2 c0/(nu |M|) = {gamma:g} "
                          "must lie in (-1/2, 0)")
    w_bot, w_top = _turning_points(gamma)
    half = 0.5 * (w_top - w_bot)
    theta = np.linspace(0.0, math.pi, _ORBIT_SAMPLES)
    w = 0.5 * (w_top + w_bot) - half * np.cos(theta)
    # r(w) = (w - w_bot)(w_top - w) h(w) with h smooth and positive, so
    # ds = dw / sqrt(r) = dtheta / sqrt(h).  Each half orbit refers r to its
    # turning point, gamma e^-2w = (w_bot - 1/2) e^-2rise = (w_top - 1/2)
    # e^2fall, so r never overflows and is exact there, where r' = -2w.
    rise = 2.0 * half * np.sin(0.5 * theta) ** 2      # w - w_bot
    fall = 2.0 * half * np.cos(0.5 * theta) ** 2      # w_top - w
    lo, hi = slice(1, _ORBIT_SAMPLES // 2), slice(_ORBIT_SAMPLES // 2, -1)
    r = np.concatenate((
        -(0.5 - w_bot) * np.expm1(-2.0 * rise[lo]) - rise[lo],
        (w_top - 0.5) * np.expm1(2.0 * fall[hi]) + fall[hi]))
    h = np.concatenate(([-w_bot / half], r / (rise * fall)[1:-1],
                        [w_top / half]))
    root_h = np.sqrt(h)
    s = _cumulative_simpson(1.0 / root_h, math.pi / (_ORBIT_SAMPLES - 1))
    # w'(s) vanishes exactly at the turning points, where sin(pi) does not
    slope = half * np.sin(theta) * root_h
    slope[-1] = 0.0
    return OrbitTable(in_range("bottom", w_scale * w_bot), w_scale * w_top,
                      in_range("period", lam_scale * 2.0 * float(s[-1])),
                      float(c1), _HermiteTable(s, w, slope), w_scale, lam_scale)


def _cumulative_simpson(y, dx):
    """Running integral from 0 of samples ``y`` a uniform ``dx`` apart.

    Each step's integral is Simpson's through the step and its neighbour,
    the one after it on even steps and the one before on odd steps and the
    last, as scipy's ``cumulative_simpson`` forms it.
    """
    ahead = dx / 3.0 * (1.25 * y[:-2] + 2.0 * y[1:-1] - 0.25 * y[2:])
    behind = dx / 3.0 * (1.25 * y[2:] + 2.0 * y[1:-1] - 0.25 * y[:-2])
    steps = np.empty(y.size - 1)
    steps[:-1:2] = ahead[0::2]
    steps[1::2] = behind[0::2]
    steps[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(steps)))


def nested_area_integral(betas, zeta):
    """Area term of the beta2 bracket at one station or an array of them.

    F = integral_0^zeta exp(-d(z))/b(z) integral_0^z exp(d(y)) dy dz, and
    since d' = M/b, one integration by parts leaves a single integral,
    F = -(1/M) integral_0^zeta expm1(d(y) - d(zeta)) dy (M != 0), taken
    for every station in one quadrature.
    """
    d_end = np.atleast_1d(d_of_zeta(betas, zeta))[:, None]
    area = adaptive_quad(lambda y: np.expm1(d_of_zeta(betas, y) - d_end),
                         0.0, zeta, rtol=1e-10) / -betas[3]
    return area if np.ndim(zeta) else float(area)


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
        area = nested_area_integral(config.betas, zetas)[:, None]
        correction = 0.5 * zetas[:, None] * lam * lam + nu * area
        q = gain * (w - (b2 / (2.0 * a)) * correction)
    return q if np.ndim(zeta) else q[0]
