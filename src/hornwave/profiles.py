"""Duct cross-section profiles and the coordinate maps built on them.

Conventions used throughout the package:

* ``S(x)`` is the cross-section area ratio, normalized so S(0) = 1.
* ``zeta(x) = integral_0^x dx' / sqrt(S)`` is the stretched range coordinate.
* ``mu(x) = nu * sqrt(S(x))`` is the effective absorption coefficient.

A duct family is *classified* by a quadratic ``b(zeta) = beta0 + beta1*zeta
+ beta2*zeta**2`` and a constant ``M`` through ``ln(mu/nu) = d(zeta)`` with
``d = M * integral_0^zeta dy / b(y)``.  :func:`d_of_zeta` evaluates the three
closed forms of that integral (by the sign of the discriminant of ``b``) and
falls back to direct quadrature near the case boundary.

Profiles are frozen dataclasses; any internal tables are built eagerly at
construction so instances can be shared between threads read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from ._quadrature import adaptive_quad
from .errors import (ConfigError, DomainError, QuadratureError,
                     SingularProfileError)

_ROUNDTRIP_TOL = 1e-10
_MIDPOINT_TOL = 1e-13
_CASE_BOUNDARY_TOL = 1e-12
_BETA_PANELS = 32
_MAX_SPLIT_ROUNDS = 60
_MAX_PANELS = 1 << 16
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _check_range(x, lo, hi, what, hi_inclusive=True):
    arr, _ = _as_float_array(x)
    if np.any(arr < lo) or np.any(arr > hi if hi_inclusive else arr >= hi):
        bad = arr[(arr < lo) | ((arr > hi) if hi_inclusive else (arr >= hi))]
        raise DomainError(
            f"{what} = {float(np.atleast_1d(bad)[0]):g} outside "
            f"[{lo:g}, {hi:g}{']' if hi_inclusive else ')'}")


def _rel_err(got, want):
    return np.abs(got - want) / (1.0 + np.abs(want))


def _map_err(there, back, arg, want):
    """Error of ``there(arg)`` against ``want``: forward, or backward (how
    far ``back`` carries it from ``arg``), whichever is smaller; a steep
    map's forward error is its input's rounding times the slope."""
    got = there(arg)
    return np.fmin(_rel_err(got, want), _rel_err(back(got), arg))


def _panels(rate, lo, hi, rate_lo):
    """Rows lo, mid, hi, rate(lo) and the fixed-order Gauss-Legendre
    increments of the two halves of each panel [lo, hi]."""
    mid = 0.5 * (lo + hi)
    a, b = np.stack([lo, mid]), np.stack([mid, hi])
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[..., None] + half[..., None] * _GAUSS_NODES
    return np.vstack([lo, mid, hi, rate_lo, half * (rate(nodes) @ _GAUSS_WEIGHTS)])


def _clamped(spline):
    """``spline`` held at its last knot beyond it (a stalled table end)."""
    return lambda v: spline(np.minimum(v, spline.x[-1]))


class Profile:
    """Common surface of all duct profiles.

    Subclasses provide ``area``, ``area_derivative``, ``zeta_of_x`` and
    ``x_of_zeta``; everything else derives from those.
    """

    x_max: float = math.inf
    zeta_max: float = math.inf
    betas: tuple[float, float, float, float] | None = None

    def area(self, x):
        raise NotImplementedError

    def area_derivative(self, x):
        raise NotImplementedError

    def zeta_of_x(self, x):
        raise NotImplementedError

    def x_of_zeta(self, zeta):
        raise NotImplementedError

    def mu(self, nu, x):
        """Absorption coefficient nu * sqrt(S(x))."""
        return nu * np.sqrt(self.area(x))

    def mu_x_over_mu(self, x):
        """Logarithmic derivative d ln(mu)/dx = S'/(2S)."""
        return self.area_derivative(x) / (2.0 * self.area(x))

    def mu_of_zeta(self, nu, zeta):
        return self.mu(nu, self.x_of_zeta(zeta))


@dataclass(frozen=True)
class ConstantProfile(Profile):
    """Uniform duct: S = 1 identically, zeta coincides with x."""

    def area(self, x):
        arr, scalar = _as_float_array(x)
        _check_range(arr, 0.0, math.inf, "x")
        return 1.0 if scalar else np.ones(arr.shape)

    def area_derivative(self, x):
        arr, scalar = _as_float_array(x)
        return 0.0 if scalar else np.zeros(arr.shape)

    def zeta_of_x(self, x):
        _check_range(x, 0.0, math.inf, "x")
        arr, scalar = _as_float_array(x)
        return float(arr) if scalar else arr.copy()

    def x_of_zeta(self, zeta):
        _check_range(zeta, 0.0, math.inf, "zeta")
        arr, scalar = _as_float_array(zeta)
        return float(arr) if scalar else arr.copy()


@dataclass(frozen=True)
class ExponentialProfile(Profile):
    """Exponential horn: S(x) = exp(2*alpha*x), so mu/nu = exp(alpha*x)."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ConfigError("alpha must be finite")
        object.__setattr__(self, "zeta_max",
                           1.0 / self.alpha if self.alpha > 0 else math.inf)

    def area(self, x):
        _check_range(x, 0.0, math.inf, "x")
        return np.exp(2.0 * self.alpha * np.asarray(x, dtype=float)) if np.ndim(x) \
            else math.exp(2.0 * self.alpha * float(x))

    def area_derivative(self, x):
        return 2.0 * self.alpha * self.area(x)

    def zeta_of_x(self, x):
        _check_range(x, 0.0, math.inf, "x")
        a = self.alpha
        if a == 0.0:
            return np.asarray(x, dtype=float) + 0.0 if np.ndim(x) else float(x)
        xv = np.asarray(x, dtype=float)
        out = -np.expm1(-a * xv) / a
        return out if np.ndim(x) else float(out)

    def x_of_zeta(self, zeta):
        _check_range(zeta, 0.0, self.zeta_max, "zeta", hi_inclusive=False)
        a = self.alpha
        if a == 0.0:
            return np.asarray(zeta, dtype=float) + 0.0 if np.ndim(zeta) else float(zeta)
        zv = np.asarray(zeta, dtype=float)
        out = -np.log1p(-a * zv) / a
        return out if np.ndim(zeta) else float(out)


@dataclass(frozen=True)
class SphericalProfile(Profile):
    """Conical duct: S(x) = (1 + x/R)**2.

    R > 0 expands; R < 0 tapers and the domain stops short of the focal
    point x = |R| where the section collapses.
    """

    radius: float

    def __post_init__(self):
        if self.radius == 0.0 or not math.isfinite(self.radius):
            raise ConfigError("radius must be finite and nonzero")
        if self.radius < 0:
            object.__setattr__(self, "x_max", -self.radius)

    def area(self, x):
        _check_range(x, 0.0, self.x_max, "x", hi_inclusive=False)
        base = 1.0 + np.asarray(x, dtype=float) / self.radius
        out = base * base
        return out if np.ndim(x) else float(out)

    def area_derivative(self, x):
        _check_range(x, 0.0, self.x_max, "x", hi_inclusive=False)
        out = 2.0 * (1.0 + np.asarray(x, dtype=float) / self.radius) / self.radius
        return out if np.ndim(x) else float(out)

    def zeta_of_x(self, x):
        _check_range(x, 0.0, self.x_max, "x", hi_inclusive=False)
        out = self.radius * np.log1p(np.asarray(x, dtype=float) / self.radius)
        return out if np.ndim(x) else float(out)

    def x_of_zeta(self, zeta):
        _check_range(zeta, 0.0, math.inf, "zeta")
        out = self.radius * np.expm1(np.asarray(zeta, dtype=float) / self.radius)
        if np.ndim(zeta):
            if np.any(out >= self.x_max):
                raise DomainError("zeta maps beyond the profile domain")
            return out
        out = float(out)
        if out >= self.x_max:
            raise DomainError("zeta maps beyond the profile domain")
        return out


@dataclass(frozen=True)
class PowerLawProfile(Profile):
    """Power-law duct S(x) = (1 + (M+beta1)*x/beta0)**(2M/(beta1+M)).

    This is the beta2 = 0 classified family in its original coordinate.
    The degenerate direction beta1 = -M is the exponential horn; use
    :class:`ExponentialProfile` for it.
    """

    beta0: float
    beta1: float
    m: float

    def __post_init__(self):
        if self.beta0 <= 0:
            raise ConfigError("beta0 must be positive")
        if self.m == 0:
            raise ConfigError("M must be nonzero")
        if self.m + self.beta1 == 0:
            raise ConfigError(
                "beta1 = -M degenerates to the exponential horn; "
                "use ExponentialProfile")
        c = (self.m + self.beta1) / self.beta0
        object.__setattr__(self, "_c", c)
        if c < 0:
            object.__setattr__(self, "x_max", -1.0 / c)
        if self.beta1 < 0:
            object.__setattr__(self, "zeta_max", -self.beta0 / self.beta1)
        object.__setattr__(self, "betas",
                           (self.beta0, self.beta1, 0.0, self.m))

    def _base(self, x):
        _check_range(x, 0.0, self.x_max, "x", hi_inclusive=False)
        base = 1.0 + self._c * np.asarray(x, dtype=float)
        if np.any(np.asarray(base) <= 0.0):
            raise DomainError("power-law base reached zero inside the range")
        return base

    def area(self, x):
        out = self._base(x) ** (2.0 * self.m / (self.beta1 + self.m))
        return out if np.ndim(x) else float(out)

    def area_derivative(self, x):
        base = self._base(x)
        p = 2.0 * self.m / (self.beta1 + self.m)
        out = p * self._c * base ** (p - 1.0)
        return out if np.ndim(x) else float(out)

    def mu_x_over_mu(self, x):
        out = self.m / (self.beta0 + (self.m + self.beta1) * np.asarray(x, dtype=float))
        return out if np.ndim(x) else float(out)

    def zeta_of_x(self, x):
        base = self._base(x)
        if self.beta1 == 0.0:
            out = (self.beta0 / self.m) * np.log(base)
        else:
            q = self.beta1 / (self.m + self.beta1)
            out = (self.beta0 / self.beta1) * (base ** q - 1.0)
        return out if np.ndim(x) else float(out)

    def x_of_zeta(self, zeta):
        _check_range(zeta, 0.0, self.zeta_max, "zeta", hi_inclusive=False)
        zv = np.asarray(zeta, dtype=float)
        if self.beta1 == 0.0:
            out = (np.exp(self.m * zv / self.beta0) - 1.0) / self._c
        else:
            inner = 1.0 + self.beta1 * zv / self.beta0
            out = (inner ** ((self.m + self.beta1) / self.beta1) - 1.0) / self._c
        return out if np.ndim(zeta) else float(out)


class _TableMapProfile(Profile):
    """Profile whose coordinate map is one table built at construction.

    A subclass knows the rate of one direction exactly (dzeta/dx =
    1/sqrt(S) for measured ducts, dx/dzeta = exp(d) for the classified
    family) and calls :meth:`_tabulate_map` from ``__post_init__``.  Each
    panel's increment comes from a fixed-order Gauss-Legendre rule; one
    cubic Hermite spline per direction, with the exact rate (or its
    reciprocal) as the slope, then answers every query.  A panel is
    halved until both splines reproduce its midpoint, the inverse one
    forward or backward (see :func:`_map_err`), and the round trip must
    hold to ``_ROUNDTRIP_TOL`` before the profile exists; a table that
    cannot get there raises QuadratureError.  Queries outside [0, x_max]
    or [0, zeta_max] raise DomainError, so the splines never extrapolate.
    """

    def _tabulate_map(self, knots, rate, *, from_x):
        """Integrate ``rate`` from 0 over panels starting at ``knots``: x
        knots and dzeta/dx if ``from_x``, else zeta knots and dx/dzeta."""
        s = np.asarray(knots, dtype=float)
        rate_end = rate(s[-1:])
        panels = _panels(rate, s[:-1], s[1:], rate(s[:-1]))
        for _ in range(_MAX_SPLIT_ROUNDS):
            lo, mid, hi, slope_lo, left, right = panels
            s, slope = np.append(lo, hi[-1]), np.append(slope_lo, rate_end)
            t = np.concatenate(([0.0], np.cumsum(left + right)))
            # A rate that decays to nothing stalls t within rounding of its
            # end value; the inverse table stops at the first such knot.
            t_end = float(t[-1])
            end = int(np.searchsorted(t, t_end - 0.5 * _MIDPOINT_TOL * (1.0 + t_end))) + 1
            if not (np.isfinite(t_end) and np.all(np.diff(t[:end]) > 0.0)
                    and np.all(slope[:end] > 0.0)
                    and np.all((slope >= 0.0) & (slope < np.inf))):
                raise QuadratureError(
                    f"coordinate rate is not finite and positive on [0, {s[-1]:g}]")
            forward = CubicHermiteSpline(s, t, slope)
            inverse = _clamped(CubicHermiteSpline(t[:end], s[:end],
                                                  1.0 / slope[:end]))
            t_mid = t[:-1] + left
            missed = np.maximum(_rel_err(forward(mid), t_mid),
                                _map_err(inverse, forward, t_mid, mid)) > _MIDPOINT_TOL
            if (not missed.any() or mid.size + missed.sum() > _MAX_PANELS
                    or np.any((mid[missed] <= lo[missed]) | (mid[missed] >= hi[missed]))):
                break
            # halve the missed panels; the others keep their increments
            lo, mid, hi = panels[:3, missed]
            panels = np.concatenate([panels[:, ~missed],
                                     _panels(rate, lo, mid, panels[3, missed]),
                                     _panels(rate, mid, hi, rate(mid))], axis=1)
            panels = panels[:, np.argsort(panels[0])]
        lo, hi = s[:-1], s[1:]
        quarter = np.array([[0.25], [0.75]])
        s_probe = (lo + quarter * (hi - lo)).ravel()
        t_probe = (t[:-1] + quarter * np.diff(t)).ravel()
        worst = max(_map_err(inverse, forward, forward(s_probe), s_probe).max(),
                    _map_err(forward, inverse, inverse(t_probe), t_probe).max())
        if missed.any() or not worst <= _ROUNDTRIP_TOL:
            raise QuadratureError(
                f"coordinate table round trip {worst:.3e} misses {_ROUNDTRIP_TOL:.1e}"
                f" ({int(missed.sum())} of {mid.size} panels unresolved)",
                achieved=worst, target=_ROUNDTRIP_TOL)
        if not from_x:
            forward, inverse, s, t = inverse, forward, t, s
        object.__setattr__(self, "_zeta_spline", forward)
        object.__setattr__(self, "_x_spline", inverse)
        object.__setattr__(self, "x_max", float(s[-1]))
        object.__setattr__(self, "zeta_max", float(t[-1]))

    # Clipped at the far end: a spline can land an ulp beyond it, which
    # the next map back would reject.
    def zeta_of_x(self, x):
        _check_range(x, 0.0, self.x_max, "x")
        out = np.minimum(self._zeta_spline(x), self.zeta_max)
        return out if np.ndim(x) else float(out)

    def x_of_zeta(self, zeta):
        _check_range(zeta, 0.0, self.zeta_max, "zeta")
        out = np.minimum(self._x_spline(zeta), self.x_max)
        return out if np.ndim(zeta) else float(out)


@dataclass(frozen=True)
class BetaFamilyProfile(_TableMapProfile):
    """Duct defined in the stretched coordinate by mu/nu = exp(d(zeta)).

    The map back to x comes from dx = sqrt(S) dzeta = exp(d) dzeta,
    tabulated once at construction from a uniform zeta mesh.
    """

    beta0: float
    beta1: float
    beta2: float
    m: float
    zeta_cap: float | None = None

    def __post_init__(self):
        if self.beta0 <= 0:
            raise ConfigError("beta0 must be positive (b(0) > 0)")
        betas = (self.beta0, self.beta1, self.beta2, self.m)
        object.__setattr__(self, "betas", betas)
        cap = self.zeta_cap
        root = _first_positive_root(self.beta0, self.beta1, self.beta2)
        if cap is None:
            cap = root * (1.0 - 1e-9) if root is not None else 32.0
        elif not cap > 0.0:
            raise ConfigError(f"zeta_cap must be positive, got {cap:g}")
        elif root is not None and cap >= root:
            raise ConfigError(
                f"zeta_cap {cap:g} reaches the singular point b(zeta)=0 at {root:g}")
        self._tabulate_map(np.linspace(0.0, cap, _BETA_PANELS + 1),
                           lambda z: np.exp(d_of_zeta(betas, z)), from_x=False)

    def area(self, x):
        zeta = self.zeta_of_x(x)
        return np.exp(2.0 * d_of_zeta(self.betas, zeta))

    def area_derivative(self, x):
        zeta = self.zeta_of_x(x)
        d = d_of_zeta(self.betas, zeta)
        b = classifying_b(self.betas, zeta)
        return 2.0 * self.m * np.exp(d) / b

    def mu_x_over_mu(self, x):
        zeta = self.zeta_of_x(x)
        d = d_of_zeta(self.betas, zeta)
        b = classifying_b(self.betas, zeta)
        return self.m * np.exp(-d) / b

    def mu_of_zeta(self, nu, zeta):
        # closed form; skips the zeta -> x -> zeta round trip of the base class
        return nu * np.exp(d_of_zeta(self.betas, zeta))


@dataclass(frozen=True)
class TabulatedProfile(_TableMapProfile):
    """Profile interpolated from measured (x, S) samples.

    Uses shape-preserving monotone cubic interpolation between samples, so
    positive data stays positive.  The sample range declares the domain.
    """

    x_samples: np.ndarray
    s_samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_samples, dtype=float)
        s = np.asarray(self.s_samples, dtype=float)
        if x.ndim != 1 or x.shape != s.shape or x.size < 4:
            raise ConfigError("need matching 1-d x and S samples, at least 4 points")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("x samples must be strictly increasing")
        if x[0] != 0.0:
            raise ConfigError("profile tables must start at x = 0")
        if abs(s[0] - 1.0) > 1e-8:
            raise ConfigError("S(0) must equal 1 (normalized cross-section)")
        if np.any(s <= 0.0):
            raise ConfigError("cross-section samples must be positive")
        object.__setattr__(self, "x_samples", x)
        object.__setattr__(self, "s_samples", s)
        interp = PchipInterpolator(x, s, extrapolate=False)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_dinterp", interp.derivative())
        self._tabulate_map(x, lambda t: 1.0 / np.sqrt(interp(t)), from_x=True)

    def area(self, x):
        _check_range(x, 0.0, self.x_max, "x")
        out = self._interp(x)
        return out if np.ndim(x) else float(out)

    def area_derivative(self, x):
        _check_range(x, 0.0, self.x_max, "x")
        out = self._dinterp(x)
        return out if np.ndim(x) else float(out)


def load_profile_table(path) -> TabulatedProfile:
    """Read a two-column ``x S`` text file ('#' comments) into a profile."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ConfigError(
            f"profile table must have two columns (x, S), got {data.shape[1]}")
    return TabulatedProfile(data[:, 0], data[:, 1])


def classifying_b(betas, zeta):
    """The classifying quadratic b(zeta) = beta0 + beta1*zeta + beta2*zeta**2."""
    b0, b1, b2, _ = betas
    z = np.asarray(zeta, dtype=float)
    out = b0 + z * (b1 + b2 * z)
    return out if np.ndim(zeta) else float(out)


def _first_positive_root(b0, b1, b2):
    """Smallest root of the classifying quadratic in (0, inf), if any."""
    if b2 == 0.0:
        if b1 == 0.0:
            return None
        r = -b0 / b1
        return r if r > 0 else None
    disc = b1 * b1 - 4.0 * b0 * b2
    if disc < 0:
        return None
    s = math.sqrt(disc)
    # two-product form: the naive (-b1 +/- s)/(2 b2) cancels for tiny b2
    q = -0.5 * (b1 + math.copysign(s, b1))
    roots = sorted((q / b2, b0 / q)) if q != 0.0 else (0.0, 0.0)
    for r in roots:
        if r > 0:
            return r
    return None


def _check_no_root(betas, zmax):
    b0, b1, b2, _ = betas
    if b0 == 0.0:
        raise SingularProfileError("b(0) = beta0 vanishes")
    r = _first_positive_root(b0, b1, b2)
    if r is not None and r <= zmax:
        raise SingularProfileError(
            f"b(zeta) vanishes at zeta = {r:g} inside [0, {zmax:g}]")


def d_of_zeta(betas, zeta, *, boundary_tol=_CASE_BOUNDARY_TOL):
    """Classified absorption exponent d(zeta) = M * integral_0^zeta dy/b(y).

    Evaluates the closed form matching the discriminant of b; parameters
    within ``boundary_tol`` (relative) of the degenerate case are handed to
    direct quadrature instead of either closed form.

    Raises :class:`SingularProfileError` if b vanishes inside [0, zeta].
    """
    b0, b1, b2, m = betas
    zarr, scalar = _as_float_array(zeta)
    if np.any(zarr < 0):
        raise DomainError("zeta must be nonnegative")
    zmax = float(zarr.max()) if zarr.size else 0.0
    _check_no_root(betas, zmax)
    disc = b1 * b1 - 4.0 * b0 * b2
    if m == 0.0:
        out = np.zeros(zarr.shape)
    elif b2 == 0.0 and b1 == 0.0:
        out = m * zarr / b0
    elif b2 == 0.0:
        # log first: m/b1 alone can overflow for subnormal b1
        out = m * (np.log1p(b1 * zarr / b0) / b1)
    elif disc == 0.0:
        out = 2.0 * m * zarr / (2.0 * b0 + b1 * zarr)
    elif abs(disc) <= boundary_tol * max(1.0, b1 * b1, abs(4.0 * b0 * b2)):
        # one quadrature per gap between the sorted points, then a running sum
        zs, where = np.unique(zarr.ravel(), return_inverse=True)
        edges = np.concatenate(([0.0], zs))
        gaps = [adaptive_quad(lambda y: 1.0 / (b0 + y * (b1 + b2 * y)),
                              lo, hi, rtol=1e-12)
                for lo, hi in zip(edges[:-1], edges[1:])]
        out = m * np.cumsum(gaps)[where].reshape(zarr.shape)
    elif disc < 0.0:
        s = math.sqrt(-disc)
        out = (2.0 * m / s) * (np.arctan((b1 + 2.0 * b2 * zarr) / s)
                               - math.atan(b1 / s))
    else:
        # b = b0 (1 - y/r1)(1 - y/r2) with the roots r1 = q/b2, r2 = b0/q in
        # the two-product form of _first_positive_root; one log1p per root
        # keeps full precision when b2 is tiny or subnormal
        s = math.sqrt(disc)
        q = -0.5 * (b1 + math.copysign(s, b1))
        out = (m * math.copysign(1.0, b1) / s) * (np.log1p(-zarr * (q / b0))
                                                  - np.log1p(-zarr * (b2 / q)))
    return float(out) if scalar else out


def beta_profile_table(betas, s_range, n=65):
    """Tabulate (S, zeta, x) for a classified duct family.

    Supports the two branches with closed or single-quadrature forms:
    ``beta2 = 0`` (power-law / exponential ducts) and ``beta1 = 0``
    (arctangent absorption ducts, where x needs one quadrature in S).

    Returns an (n, 3) array with columns S, zeta, x over ``s_range``.
    """
    b0, b1, b2, m = betas
    if m == 0.0:
        raise ConfigError("the classified family needs M != 0")
    if b0 <= 0.0:
        raise ConfigError("beta0 must be positive")
    smin, smax = float(s_range[0]), float(s_range[1])
    if not (0.0 < smin <= smax):
        raise ConfigError(f"bad S range {s_range!r}")
    grid = np.linspace(smin, smax, n)

    if b2 == 0.0:
        if b1 == -m:
            x = (b0 / (2.0 * m)) * np.log(grid)
            zeta = (b0 / m) * (1.0 - grid ** -0.5)
        elif b1 == 0.0:
            x = (b0 / m) * (np.sqrt(grid) - 1.0)
            zeta = (b0 / (2.0 * m)) * np.log(grid)
        else:
            x = (b0 / (m + b1)) * (grid ** ((m + b1) / (2.0 * m)) - 1.0)
            zeta = (b0 / b1) * (grid ** (b1 / (2.0 * m)) - 1.0)
        return np.column_stack([grid, zeta, x])

    if b1 == 0.0:
        if b0 * b2 <= 0.0:
            raise ConfigError("this branch needs beta0*beta2 > 0")
        root = math.sqrt(b0 * b2)
        theta = (root / (2.0 * m)) * np.log(grid)
        if np.any(np.abs(theta) >= math.pi / 2.0 - 1e-12):
            bad = grid[np.abs(theta) >= math.pi / 2.0 - 1e-12][0]
            raise SingularProfileError(
                f"cos factor vanishes inside the S range (S = {bad:g})")
        zeta = math.sqrt(b0 / b2) * np.tan(theta)

        def integrand(s):
            th = (root / (2.0 * m)) * math.log(s)
            return (b0 / (2.0 * m)) / (math.sqrt(s) * math.cos(th) ** 2)

        x = np.empty_like(grid)
        x[0] = adaptive_quad(integrand, 1.0, grid[0])
        for i in range(1, grid.size):
            x[i] = x[i - 1] + adaptive_quad(integrand, grid[i - 1], grid[i])
        return np.column_stack([grid, zeta, x])

    raise ConfigError(
        "tabulation supports beta2 = 0 or beta1 = 0 families only")
