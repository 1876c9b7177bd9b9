"""Duct cross-section profiles and the coordinate maps built on them.

Conventions used throughout the package:

* ``S(x)`` is the cross-section area ratio, normalized so S(0) = 1.
* ``zeta(x) = integral_0^x dx' / sqrt(S)`` is the stretched range coordinate.
* ``mu(x) = nu * sqrt(S(x))`` is the effective absorption coefficient.

A duct family is *classified* by a quadratic ``b(zeta) = beta0 + beta1*zeta
+ beta2*zeta**2`` and a constant ``M`` through ``ln(mu/nu) = d(zeta)`` with
``d = M * integral_0^zeta dy / b(y)``.  :func:`d_of_zeta` evaluates that
integral in closed form, one formula for each sign of the discriminant of
``b``.

Profiles are frozen dataclasses; any internal tables are built eagerly at
construction so instances can be shared between threads read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import GAUSS_NODES, GAUSS_WEIGHTS
# imported only for perfbench's tracer, which patches the name here;
# nothing in this module calls it
from ._quadrature import adaptive_quad  # noqa: F401
from .errors import (ConfigError, DomainError, QuadratureError,
                     SingularProfileError)

_ROUNDTRIP_TOL = 1e-10
_MIDPOINT_TOL = 1e-13
_BETA_PANELS = 32
_MAX_SPLIT_ROUNDS = 60
_MAX_PANELS = 1 << 16


def _check_range(arr, hi, what, hi_open=False):
    """Raise DomainError unless every point lies in [0, hi] ([0, hi) if open);
    NaN lies nowhere."""
    bad = ~((arr >= 0.0) & ((arr < hi) if hi_open else (arr <= hi)))
    if bad.any():
        raise DomainError(f"{what} = {float(arr[bad][0]):g} outside "
                          f"[0, {hi:g}{')' if hi_open else ']'}")


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
    nodes = (0.5 * (a + b))[..., None] + half[..., None] * GAUSS_NODES
    return np.vstack([lo, mid, hi, rate_lo, half * (rate(nodes) @ GAUSS_WEIGHTS)])


class _HermiteTable:
    """Piecewise cubic through knots ``x`` with values ``y`` and slopes
    ``slope``.

    Each piece is held in powers of u = v - x_i, as scipy's
    ``CubicHermiteSpline`` holds it, and the end pieces extend beyond the
    knots.  Call it with ``nu = 1`` for the first derivative.
    """

    def __init__(self, x, y, slope):
        self.x = x
        self._inner = x[1:-1]     # searchsorted here gives the piece index
        dx = np.diff(x)
        secant = np.diff(y) / dx
        t = (slope[:-1] + slope[1:] - 2.0 * secant) / dx
        self._coef = np.stack((t / dx, (secant - slope[:-1]) / dx - t,
                               slope[:-1], y[:-1]))

    def __call__(self, v, nu=0):
        i = np.searchsorted(self._inner, v, side="right")
        u = v - self.x[i]
        c3, c2, c1, c0 = self._coef[:, i]
        if nu:
            return c1 + 2.0 * (c2 * u) + 3.0 * (c3 * (u * u))
        return c0 + c1 * u + c2 * (u * u) + c3 * (u * u * u)


def _pchip_slopes(x, y):
    """Knot slopes of the monotone cubic through (x, y) (Fritsch-Carlson,
    in the form of scipy's ``PchipInterpolator``).

    Inside, the weighted harmonic mean of the two neighbouring secants, or
    0 where they differ in sign or one is flat; at each end the one-sided
    three-point estimate, set to 0 if it opposes the end secant and to 3x
    that secant if the data turn and it overshoots.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    turn = np.sign(m[1:]) * np.sign(m[:-1]) <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))

    def end(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    return np.concatenate(([end(h[0], h[1], m[0], m[1])],
                           np.where(turn, 0.0, inner),
                           [end(h[-1], h[-2], m[-1], m[-2])]))


def _clamped(table):
    """``table`` held at its last knot beyond it (a stalled table end)."""
    return lambda v: table(np.minimum(v, table.x[-1]))


class Profile:
    """Common surface of all duct profiles.

    The solvers see a duct only through five maps: the area S, the
    coordinate maps zeta(x) and x(zeta), the absorption mu = nu sqrt(S)
    and its log-derivative mu_x/mu.  Each takes a scalar or an array,
    checks it once against its domain, [0, x_max] or [0, zeta_max] with
    the far end open where a class marks it singular (``x_open``,
    ``zeta_open``), applies a private array formula and returns a float
    for a scalar argument.  Every subclass provides the same four
    formulas: ``_area``, ``_mu_x_over_mu``, ``_zeta_of_x`` and
    ``_x_of_zeta``.
    """

    x_max: float = math.inf
    zeta_max: float = math.inf
    x_open = zeta_open = False

    def _checked(self, formula, v, what):
        arr = np.asarray(v, dtype=float)
        if what == "x":
            _check_range(arr, self.x_max, what, self.x_open)
        else:
            _check_range(arr, self.zeta_max, what, self.zeta_open)
        out = formula(arr)
        return out if arr.ndim else float(out)

    def area(self, x):
        """Cross-section ratio S(x)."""
        return self._checked(self._area, x, "x")

    def zeta_of_x(self, x):
        """Stretched coordinate zeta(x)."""
        return self._checked(self._zeta_of_x, x, "x")

    def x_of_zeta(self, zeta):
        """Inverse map x(zeta)."""
        return self._checked(self._x_of_zeta, zeta, "zeta")

    def mu(self, nu, x):
        """Absorption coefficient nu * sqrt(S(x))."""
        return self._checked(lambda v: nu * np.sqrt(self._area(v)), x, "x")

    def mu_x_over_mu(self, x):
        """Logarithmic derivative d ln(mu)/dx = S'/(2S)."""
        return self._checked(self._mu_x_over_mu, x, "x")


@dataclass(frozen=True)
class PowerLawProfile(Profile):
    """Closed-form duct of the classified family with linear b, that is
    beta2 = 0 and b(zeta) = beta0 + beta1*zeta.

    With p = M/beta0, r = beta1/beta0 and c = p + r the area is
    S(x) = (1 + c*x)**(2p/c), or exp(2p*x) where c = 0.  The stretched
    coordinate is zeta = expm1(r*g)/r with g = log1p(c*x)/c, each quotient
    read as its limit (g = x, zeta = g) where its rate is 0, and x(zeta)
    swaps c and r.  The domain ends where a log1p argument reaches -1:
    x_max = -1/c if c < 0 and zeta_max = -1/r if r < 0, both open.  The
    constant duct (M = 0), the exponential horn (beta1 = -M) and the cone
    (beta1 = 0, |M| = 1) are corners of the family; see
    :func:`ConstantProfile`, :func:`ExponentialProfile` and
    :func:`SphericalProfile`.

    Each map branches on the scalars c and r alone.  The x side divides
    by the length 1/c = beta0/(M + beta1), a cone's radius exactly; x over
    it stays above -1 for every x below x_max, so only zeta needs a check
    for rounding onto its open end.
    """

    beta0: float
    beta1: float
    m: float
    x_open = zeta_open = True

    def __post_init__(self):
        if not 0.0 < self.beta0 < math.inf:
            raise ConfigError("beta0 must be positive and finite")
        if not (math.isfinite(self.beta1) and math.isfinite(self.m)):
            raise ConfigError("beta1 and M must be finite")
        b0, b1, m = self.beta0, self.beta1, self.m
        length = b0 / (m + b1) if m + b1 else math.inf
        for name, value in (("betas", (b0, b1, 0.0, m)), ("_p", m / b0),
                            ("_r", b1 / b0), ("_length", length)):
            object.__setattr__(self, name, value)
        if length < 0.0:
            object.__setattr__(self, "x_max", -length)
        if b1 < 0.0:
            object.__setattr__(self, "zeta_max", -b0 / b1)

    def _area(self, x):
        length = self._length
        if length == math.inf:
            return np.exp(2.0 * self._p * x)
        power = 2.0 * self.m / (self.beta1 + self.m)
        return (1.0 + x / length) ** power

    def _mu_x_over_mu(self, x):
        return self.m / (self.beta0 + (self.m + self.beta1) * x)

    # at r = 0 the map copies, so the constant duct does not hand back
    # the caller's array
    def _zeta_of_x(self, x):
        length, r = self._length, self._r
        g = length * np.log1p(x / length) if length < math.inf else x
        return np.expm1(r * g) / r if r else g + 0.0

    def _x_of_zeta(self, zeta):
        length, r = self._length, self._r
        rz = r * zeta
        if r < 0.0 and np.any(rz <= -1.0):
            raise DomainError("zeta rounds onto the open end zeta_max")
        g = np.log1p(rz) / r if r else zeta + 0.0
        out = length * np.expm1(g / length) if length < math.inf else g
        if self.x_max < math.inf and np.any(out >= self.x_max):
            raise DomainError("zeta maps beyond the profile domain")
        return out


def ConstantProfile() -> PowerLawProfile:
    """Uniform duct: S = 1 identically, zeta coincides with x."""
    return PowerLawProfile(1.0, 0.0, 0.0)


def ExponentialProfile(alpha) -> PowerLawProfile:
    """Exponential horn: S(x) = exp(2*alpha*x), so mu/nu = exp(alpha*x)."""
    if not math.isfinite(alpha):
        raise ConfigError("alpha must be finite")
    return PowerLawProfile(1.0, -alpha, alpha)


def SphericalProfile(radius) -> PowerLawProfile:
    """Conical duct: S(x) = (1 + x/R)**2.

    R > 0 expands; R < 0 tapers and the domain stops short of the focal
    point x = |R| where the section collapses.
    """
    if radius == 0.0 or not math.isfinite(radius):
        raise ConfigError("radius must be finite and nonzero")
    return PowerLawProfile(abs(radius), 0.0, math.copysign(1.0, radius))


class _TableMapProfile(Profile):
    """Profile whose coordinate map is one table built at construction.

    A subclass knows the rate of one direction exactly (dzeta/dx =
    1/sqrt(S) for measured ducts, dx/dzeta = exp(d) for the classified
    family) and calls :meth:`_tabulate_map` from ``__post_init__``.  Each
    panel's increment comes from a fixed-order Gauss-Legendre rule; one
    cubic Hermite table per direction, with the exact rate (or its
    reciprocal) as the slope, then answers every query.  A panel is
    halved until both splines reproduce its midpoint, the inverse one
    forward or backward (see :func:`_map_err`), and the round trip must
    hold to ``_ROUNDTRIP_TOL`` before the profile exists; a table that
    cannot get there raises QuadratureError.  The base class rejects
    queries outside [0, x_max] or [0, zeta_max], so the splines never
    extrapolate.
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
            forward = _HermiteTable(s, t, slope)
            inverse = _clamped(_HermiteTable(t[:end], s[:end], 1.0 / slope[:end]))
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
    def _zeta_of_x(self, x):
        return np.minimum(self._zeta_spline(x), self.zeta_max)

    def _x_of_zeta(self, zeta):
        return np.minimum(self._x_spline(zeta), self.x_max)


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

    def _area(self, x):
        return np.exp(2.0 * d_of_zeta(self.betas, self._zeta_of_x(x)))

    def _mu_x_over_mu(self, x):
        zeta = self._zeta_of_x(x)
        return (self.m * np.exp(-d_of_zeta(self.betas, zeta))
                / classifying_b(self.betas, zeta))


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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
            raise ConfigError("x and S samples must be finite")
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
        # the interpolant is the area formula; its derivative gives S'/(2S)
        area = _HermiteTable(x, s, _pchip_slopes(x, s))
        object.__setattr__(self, "_area", area)
        self._tabulate_map(x, lambda t: 1.0 / np.sqrt(area(t)), from_x=True)

    def _mu_x_over_mu(self, x):
        return self._area(x, 1) / (2.0 * self._area(x))


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


def d_of_zeta(betas, zeta):
    """Classified absorption exponent d(zeta) = M * integral_0^zeta dy/b(y).

    One closed form for each sign of the discriminant D = beta1^2 -
    4 beta0 beta2 of b, with s = sqrt|D| and c = 2 beta0 + beta1 zeta:
    a log1p for D > 0, an arctan2 for D < 0 and 2 zeta / c for D = 0.
    None of them cancels as D tends to 0, and beta1 - s is formed without
    cancelling for beta1 > 0.

    Raises :class:`SingularProfileError` if b vanishes inside [0, zeta].
    """
    b0, b1, b2, m = betas
    zarr = np.asarray(zeta, dtype=float)
    _check_range(zarr, math.inf, "zeta")
    zmax = float(zarr.max()) if zarr.size else 0.0
    _check_no_root(betas, zmax)
    disc = b1 * b1 - 4.0 * b0 * b2
    s = math.sqrt(abs(disc))
    if disc > 0.0:
        # 2 beta0 + (beta1 - s) zeta vanishes only at the root
        # 2 beta0 / (s - beta1) of b, the first positive one if it is
        # positive, so it stays positive on [0, zeta]; the log comes
        # first, since m / s alone can overflow for subnormal s
        lower = 4.0 * b0 * b2 / (b1 + s) if b1 > 0.0 else b1 - s
        out = m * (np.log1p(2.0 * s * zarr / (2.0 * b0 + lower * zarr)) / s)
    elif disc < 0.0:
        out = m * (2.0 * np.arctan2(s * zarr, 2.0 * b0 + b1 * zarr) / s)
    else:
        out = 2.0 * m * zarr / (2.0 * b0 + b1 * zarr)
    return out if zarr.ndim else float(out)
