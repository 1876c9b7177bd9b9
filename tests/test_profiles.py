"""Tests for duct profiles and coordinate maps.

The expected values here are either closed-form identities of the profile
families or cross-checks between independent evaluation routes (closed form
vs. adaptive quadrature, table vs. finite differences).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from hornwave import profiles as P
from hornwave.errors import (ConfigError, DomainError, QuadratureError,
                             SingularProfileError)


def quad(func, lo, hi, rtol):
    """scipy's adaptive Gauss-Kronrod rule, which shares no code with the
    library's quadrature; an unmet tolerance warns, and warnings fail."""
    return integrate.quad(func, lo, hi, epsabs=1e-14, epsrel=rtol,
                          limit=200)[0]


def quad_d(betas, zeta):
    """Independent oracle: direct quadrature of M/b."""
    b0, b1, b2, m = betas
    return m * quad(lambda y: 1.0 / (b0 + y * (b1 + b2 * y)), 0.0, zeta, 1e-13)


def quad_zeta_of_x(prof, x):
    """Independent oracle: 1/sqrt(S) integrated sample interval by interval."""
    edges = np.append(prof.x_samples[prof.x_samples < x], x)
    return sum(quad(lambda t: 1.0 / math.sqrt(prof.area(t)), lo, hi, 1e-12)
               for lo, hi in zip(edges[:-1], edges[1:]))


def quad_x_of_zeta(betas, zeta):
    """Independent oracle: exp(d) integrated from the throat."""
    return quad(lambda y: math.exp(P.d_of_zeta(betas, y)), 0.0, zeta, 1e-12)


def rippled_duct():
    xs = np.linspace(0.0, 4.0, 33)
    return P.TabulatedProfile(xs, np.exp(-0.2 * xs + 0.03 * np.sin(2.5 * xs)))


NEAR_CAP = (1.0, -2.5, 1.0, 1.0)   # b vanishes at zeta = 0.5
DECAYING = (1.0, 0.0, 0.0, -0.5)   # exp(d) = exp(-zeta/2), 1e-7 at the cap
DECAYING_NEAR_CAP = (1.0, -2.5, 1.0, -1.0)
BAND = (2.0, 2.0, 0.5 * (1.0 + 1e-13), 1.0)   # inside the degenerate band

PROFILES = [
    P.ConstantProfile(),
    P.ExponentialProfile(-0.1),
    P.ExponentialProfile(0.25),
    P.SphericalProfile(1.5),
    P.SphericalProfile(-4.0),
    P.PowerLawProfile(1.0, 2.0, 1.0),
    P.PowerLawProfile(2.0, -0.5, 1.5),
    P.BetaFamilyProfile(1.0, 0.5, 0.25, 0.8),
    P.BetaFamilyProfile(1.0, 0.1, 0.0, -0.1),
    rippled_duct(),
    P.BetaFamilyProfile(*NEAR_CAP),
    P.BetaFamilyProfile(*DECAYING),
    P.BetaFamilyProfile(*DECAYING_NEAR_CAP),
    P.PowerLawProfile(1.0, -3.0, 1.0),   # x_max = 0.5 and zeta_max = 1/3
]

# (name, takes nu first, maps zeta rather than x)
PUBLIC_MAPS = [
    ("area", False, False),
    ("zeta_of_x", False, False),
    ("x_of_zeta", False, True),
    ("mu", True, False),
    ("mu_x_over_mu", False, False),
]


class TestArea:
    def test_spherical_unit_radius(self):
        assert P.SphericalProfile(1.0).area(1.0) == pytest.approx(4.0, abs=1e-14)

    def test_exponential_at_origin(self):
        assert P.ExponentialProfile(-0.1).area(0.0) == 1.0

    def test_power_law_sample(self):
        # (1 + 2x)^(2*1/(1+1)) = 1 + 2x
        assert P.PowerLawProfile(1.0, 1.0, 1.0).area(1.0) == pytest.approx(3.0, abs=1e-14)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            P.ExponentialProfile(0.3).area(-0.5)

    def test_power_law_base_collapse(self):
        prof = P.PowerLawProfile(1.0, -3.0, 1.0)  # c = -2, domain [0, 0.5)
        with pytest.raises(DomainError):
            prof.area(0.6)

    def test_tapered_spherical_stops_before_focus(self):
        prof = P.SphericalProfile(-1.0)
        prof.area(0.9)
        with pytest.raises(DomainError):
            prof.area(1.0)


class TestCoordinateMap:
    def test_spherical_log_map(self):
        # zeta = R log(1 + x/R); at x = R(e - 1) this is exactly R
        prof = P.SphericalProfile(2.0)
        assert prof.zeta_of_x(2.0 * (math.e - 1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_constant_identity(self):
        prof = P.ConstantProfile()
        assert prof.zeta_of_x(5.0) == 5.0
        assert prof.x_of_zeta(5.0) == 5.0

    @pytest.mark.parametrize("prof", PROFILES)
    def test_round_trip(self, prof):
        hi = min(prof.x_max * 0.8 if math.isfinite(prof.x_max) else 3.0, 3.0)
        xs = np.linspace(0.0, hi, 17)
        back = prof.x_of_zeta(prof.zeta_of_x(xs))
        assert np.max(np.abs(back - xs)) <= 1e-10 * (1.0 + hi)

    @pytest.mark.parametrize("prof", [
        P.ExponentialProfile(-0.2),
        P.SphericalProfile(0.7),
        P.PowerLawProfile(1.0, 1.0, -2.0),
        P.BetaFamilyProfile(1.0, 0.0, 1.0, 1.0),
    ])
    def test_strictly_increasing(self, prof):
        hi = min(prof.x_max * 0.8 if math.isfinite(prof.x_max) else 4.0, 4.0)
        zs = prof.zeta_of_x(np.linspace(0.0, hi, 300))
        assert np.all(np.diff(zs) > 0)

    @pytest.mark.parametrize("name,nu_first,on_zeta", PUBLIC_MAPS,
                             ids=[m[0] for m in PUBLIC_MAPS])
    @pytest.mark.parametrize("prof", PROFILES)
    def test_public_map_checks_domain_and_returns_floats(
            self, prof, name, nu_first, on_zeta):
        method = getattr(prof, name)
        call = (lambda v: method(0.7, v)) if nu_first else method
        end = prof.zeta_max if on_zeta else prof.x_max
        beyond = [-1e-12, math.nan]
        if math.isfinite(end):
            beyond.append(end * (1.0 + 1e-12))
            if prof.zeta_open if on_zeta else prof.x_open:
                beyond.append(end)   # a singular end is not in the domain
        for v in beyond:
            with pytest.raises(DomainError):
                call(v)
        hi = 0.5 * end if math.isfinite(end) else 1.0
        pts = np.linspace(0.0, hi, 6).reshape(2, 3)
        assert type(call(pts[0, 1])) is float
        out = call(pts)
        assert isinstance(out, np.ndarray) and out.shape == pts.shape

    def test_zeta_derivative_is_inverse_root_area(self):
        # d(zeta)/dx = 1/sqrt(S): finite-difference cross-check
        prof = P.ExponentialProfile(-0.3)
        x = 1.7
        h = 1e-6
        fd = (prof.zeta_of_x(x + h) - prof.zeta_of_x(x - h)) / (2 * h)
        assert fd == pytest.approx(1.0 / math.sqrt(prof.area(x)), rel=1e-9)


class TestTableMap:
    """Table-backed maps of measured and classified ducts against
    per-point quadrature."""

    def test_tabulated_against_quadrature(self):
        prof = rippled_duct()
        xs = np.linspace(0.0, 0.99 * prof.x_max, 23)
        ref = np.array([quad_zeta_of_x(prof, x) for x in xs])
        assert np.max(np.abs(prof.zeta_of_x(xs) - ref)) <= 1e-11
        assert np.max(np.abs(prof.x_of_zeta(ref) - xs)) <= 1e-11

    @pytest.mark.parametrize("betas,hi", [
        ((1.0, 0.5, 0.25, 0.8), 3.0),
        ((1.0, 0.1, 0.0, -0.1), 3.0),
        (NEAR_CAP, 0.49999),
        (DECAYING, 6.0),
        (DECAYING_NEAR_CAP, 0.49),
    ])
    def test_beta_family_against_quadrature(self, betas, hi):
        prof = P.BetaFamilyProfile(*betas)
        zs = np.linspace(0.0, hi, 23)
        ref = np.array([quad_x_of_zeta(betas, z) for z in zs])
        assert np.max(np.abs(prof.x_of_zeta(zs) - ref)) <= 1e-11
        assert np.max(np.abs(prof.zeta_of_x(ref) - zs)) <= 1e-11

    @pytest.mark.parametrize("prof", [rippled_duct(), P.BetaFamilyProfile(*NEAR_CAP)])
    def test_domain_ends(self, prof):
        assert prof.x_of_zeta(0.0) == 0.0 and prof.zeta_of_x(0.0) == 0.0
        assert isinstance(prof.zeta_of_x(0.5 * prof.x_max), float)
        # each far end maps inside the other domain, so chained maps work
        assert prof.x_of_zeta(prof.zeta_of_x(prof.x_max)) == pytest.approx(
            prof.x_max, abs=1e-12)
        assert prof.zeta_of_x(prof.x_of_zeta(prof.zeta_max)) == pytest.approx(
            prof.zeta_max, abs=1e-12)
        for beyond in (-1e-12, prof.x_max * (1.0 + 1e-12)):
            with pytest.raises(DomainError):
                prof.zeta_of_x(beyond)
        for beyond in (-1e-12, prof.zeta_max * (1.0 + 1e-12)):
            with pytest.raises(DomainError):
                prof.x_of_zeta(beyond)

    def test_decaying_duct_to_its_cap(self):
        # zeta_of_x is steep where exp(d) is small: near the cap the rounding
        # of x alone moves zeta by ulp(2) / 1e-7, so the inverse is held to
        # its backward error, the distance x_of_zeta carries it
        prof = P.BetaFamilyProfile(*DECAYING)
        assert prof.zeta_max == 32.0
        zs = np.linspace(0.0, 32.0, 201)
        xs = prof.x_of_zeta(zs)
        assert np.max(np.abs(xs - 2.0 * -np.expm1(-0.5 * zs))) <= 1e-12
        assert np.max(np.abs(prof.x_of_zeta(prof.zeta_of_x(xs)) - xs)) <= 1e-12

    def test_stalled_duct_keeps_its_cap(self):
        # exp(-5 zeta) drops below the rounding of x = 0.2 long before the
        # cap: zeta_of_x answers the first zeta where x is within 1e-13 of
        # its end, and the whole range of x stays mapped
        prof = P.BetaFamilyProfile(1.0, 0.0, 0.0, -5.0)
        assert prof.zeta_max == 32.0
        assert prof.x_max == pytest.approx(0.2, abs=1e-15)
        z_end = prof.zeta_of_x(prof.x_max)
        assert 5.0 < z_end < 32.0
        assert prof.x_of_zeta(z_end) == pytest.approx(prof.x_max, abs=1e-13)
        zs = prof.zeta_of_x(np.linspace(0.0, prof.x_max, 301))
        assert np.all(np.diff(zs) > 0)

    def test_band_duct_integrates_each_gap_once(self, monkeypatch):
        # d(zeta) is one closed form on both sides of the degenerate case:
        # a duct next to it builds, and maps, with no quadrature at all
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature in the closed form of d(zeta)")

        monkeypatch.setattr(P, "adaptive_quad", no_quadrature)
        P.BetaFamilyProfile(*BAND)
        zs = np.linspace(0.0, 32.0, 401)
        d = P.d_of_zeta(BAND, zs)
        for i in range(0, zs.size, 50):
            assert d[i] == pytest.approx(quad_d(BAND, zs[i]), rel=1e-10)
        prof = P.BetaFamilyProfile(*BAND, zeta_cap=0.5)
        z = np.linspace(0.0, 0.5, 7)
        ref = np.array([quad_x_of_zeta(BAND, v) for v in z])
        assert np.max(np.abs(prof.x_of_zeta(z) - ref)) <= 1e-11

    @pytest.mark.parametrize("make", [
        rippled_duct, lambda: P.BetaFamilyProfile(1.0, 0.5, 0.25, 0.8)])
    def test_unreachable_round_trip_raises(self, make, monkeypatch):
        monkeypatch.setattr(P, "_ROUNDTRIP_TOL", 0.0)
        with pytest.raises(QuadratureError):
            make()

    def test_unresolvable_table_raises(self, monkeypatch):
        # no panel can meet a zero midpoint tolerance: the split stops at
        # the panel ceiling instead of growing without bound
        monkeypatch.setattr(P, "_MIDPOINT_TOL", 0.0)
        monkeypatch.setattr(P, "_MAX_PANELS", 1024)
        with pytest.raises(QuadratureError, match="unresolved"):
            P.BetaFamilyProfile(*DECAYING)

    def test_overflowing_map_raises(self):
        # exp(d) = exp(25 zeta) overflows long before the default cap of 32
        with np.errstate(over="ignore"), pytest.raises(QuadratureError):
            P.BetaFamilyProfile(1.0, 0.0, 0.0, 25.0)


class TestMu:
    def test_exponential_decay(self):
        prof = P.ExponentialProfile(-0.1)
        assert prof.mu(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert prof.mu(1.0, 10.0) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_spherical(self):
        assert P.SphericalProfile(1.0).mu(0.5, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_mu_at_origin_equals_nu(self):
        for prof in [P.ExponentialProfile(0.4), P.SphericalProfile(-2.0),
                     P.BetaFamilyProfile(1.0, 1.0, 1.0, 2.0)]:
            assert prof.mu(0.7, 0.0) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("prof", PROFILES)
    def test_log_derivative_against_fd(self, prof):
        # mu_x/mu is a formula of its own on every class; the central
        # difference reads mu, that is the area alone
        x, h = min(0.8, 0.4 * prof.x_max), 1e-6
        fd = (math.log(prof.mu(1.0, x + h)) - math.log(prof.mu(1.0, x - h))) / (2 * h)
        assert prof.mu_x_over_mu(x) == pytest.approx(fd, rel=1e-8, abs=1e-9)


class TestDOfZeta:
    def test_linear_b(self):
        assert P.d_of_zeta((1.0, 1.0, 0.0, 1.0), 1.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_no_real_roots_arctan(self):
        assert P.d_of_zeta((1.0, 0.0, 1.0, 2.0), 1.0) == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_zero_at_origin(self):
        assert P.d_of_zeta((2.0, -1.0, 3.0, 1.1), 0.0) == 0.0

    @pytest.mark.parametrize("betas", [
        (1.0, 0.5, 2.0, 1.3),    # discriminant < 0
        (1.0, 3.0, 1.0, -0.7),   # discriminant > 0, no positive root
        (2.0, 2.0, 0.5, 1.0),    # discriminant = 0 exactly
        (1.0, -1.0, 2.0, 0.4),   # discriminant < 0, falling b1
        (3.0, 0.0, 0.0, 2.0),    # constant b
        (1.0, 1.5, 5e-324, 1.0), # subnormal beta2, discriminant > 0
        BAND,                    # discriminant -4e-13
        BAND[:2] + (0.5 * (1.0 - 1e-13),) + BAND[3:],   # discriminant +4e-13
    ])
    def test_closed_forms_against_quadrature(self, betas):
        # none of these b has a positive root; 2 beta0 + beta1 zeta changes
        # sign at zeta = 2 for (1, -1, 2, 0.4)
        for z in [0.3, 0.8, 1.7, 3.0, 30.0]:
            assert P.d_of_zeta(betas, z) == pytest.approx(quad_d(betas, z), abs=1e-9)

    @pytest.mark.parametrize("zeta", [0.5 * (1.0 - 1e-9), 0.49])
    def test_next_to_a_root(self, zeta):
        # b = (1 - 2 zeta)(1 - zeta/2) has the partial fractions
        # (2/3)(2/(1 - 2y) - (1/2)/(1 - y/2)), integrated exactly below
        m = 0.7
        want = (2.0 * m / 3.0) * (math.log1p(-0.5 * zeta) - math.log1p(-2.0 * zeta))
        assert P.d_of_zeta((1.0, -2.5, 1.0, m), zeta) == pytest.approx(want, rel=1e-13)

    def test_near_degenerate_falls_back_to_quadrature(self):
        b0, b1, m = 2.0, 2.0, 1.0
        b2 = b1 * b1 / (4.0 * b0) * (1.0 + 1e-13)  # discriminant -4e-13
        betas = (b0, b1, b2, m)
        assert P.d_of_zeta(betas, 1.2) == pytest.approx(quad_d(betas, 1.2), abs=1e-10)

    def test_singular_b_detected(self):
        with pytest.raises(SingularProfileError):
            P.d_of_zeta((1.0, -2.0, 0.0, 1.0), 1.0)   # root at zeta = 0.5
        with pytest.raises(SingularProfileError):
            P.d_of_zeta((1.0, -4.0, 2.0, 1.0), 1.9)   # smaller quadratic root inside

    def test_vanishing_b_at_the_origin_detected(self):
        # beta0 = 0 is no positive root, so the root search alone misses it
        with pytest.raises(SingularProfileError, match="beta0 vanishes"):
            P.d_of_zeta((0.0, 1.0, 0.0, 1.0), 0.5)

    @given(b0=st.floats(0.2, 4.0), b1=st.floats(-3.0, 3.0),
           b2=st.floats(-2.0, 2.0), m=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
           z=st.floats(0.0, 1.5))
    @settings(max_examples=60)
    def test_matches_quadrature_whenever_regular(self, b0, b1, b2, m, z):
        betas = (b0, b1, b2, m)
        root = P._first_positive_root(b0, b1, b2)
        # singular configurations are covered elsewhere
        assume(root is None or root > z * 1.05 + 1e-6)
        assert P.d_of_zeta(betas, z) == pytest.approx(quad_d(betas, z),
                                                      rel=1e-9, abs=1e-9)


class TestBetaFamilyProfile:
    def test_matches_exponential_equivalent(self):
        # beta2 = 0, beta1 = -M, beta0 = 1 gives S = exp(2 M x)
        alpha = -0.1
        bf = P.BetaFamilyProfile(1.0, -alpha, 0.0, alpha)
        ex = P.ExponentialProfile(alpha)
        xs = np.linspace(0.0, 6.0, 25)
        assert np.max(np.abs(bf.area(xs) - ex.area(xs))) <= 1e-10

    def test_exp_d_matches_mu_route(self):
        betas = (1.0, 0.3, 0.5, 1.2)
        bf = P.BetaFamilyProfile(*betas)
        for z in [0.2, 0.9, 1.8]:
            via_d = math.exp(P.d_of_zeta(betas, z))
            via_map = bf.mu(1.0, bf.x_of_zeta(z))
            assert via_map == pytest.approx(via_d, rel=1e-8)

    def test_cap_before_singularity(self):
        bf = P.BetaFamilyProfile(1.0, -2.5, 1.0, 1.0)  # b root at 0.5
        assert bf.zeta_max < 0.5
        with pytest.raises(ConfigError):
            P.BetaFamilyProfile(1.0, -2.5, 1.0, 1.0, zeta_cap=0.6)
        with pytest.raises(ConfigError):
            P.BetaFamilyProfile(1.0, -2.5, 1.0, 1.0, zeta_cap=0.0)

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.0, 0.05, -0.1), "beta0"), ((math.nan, 0.0, 0.05, -0.1), "beta0"),
        ((math.inf, 0.0, 0.05, -0.1), "beta0"),
        ((1.0, math.nan, 0.05, -0.1), "finite"),
        ((1.0, 0.0, math.nan, -0.1), "finite"),
        ((1.0, 0.0, 0.05, math.nan), "finite"),
        ((1.0, -math.inf, 0.05, -0.1), "finite"),
        ((1.0, 0.0, 0.05, -0.1, math.nan), "zeta_cap"),
        ((1.0, 0.0, 0.05, -0.1, math.inf), "zeta_cap"),
    ])
    def test_rejects_non_finite_or_non_positive_betas(self, args, message):
        # a NaN beta2 once reached d_of_zeta's D = 0 branch and built a duct
        with pytest.raises(ConfigError, match=message):
            P.BetaFamilyProfile(*args)


# the closed-form ducts of PROFILES, and the two corners PowerLawProfile
# reaches through its general formulas: beta1 = -M (c = 0) and M = 0
LINEAR_B = [prof for prof in PROFILES if isinstance(prof, P.PowerLawProfile)] + [
    P.PowerLawProfile(1.0, 0.1, -0.1),
    P.PowerLawProfile(2.0, 0.5, 0.0),
]


def _span(end, cap):
    return min(0.9 * end, cap) if math.isfinite(end) else cap


class TestLinearB:
    """One closed form for every duct with b = beta0 + beta1 zeta."""

    @pytest.mark.parametrize("prof", LINEAR_B, ids=repr)
    def test_half_log_area_is_d_of_zeta(self, prof):
        # the classification itself: ln(mu/nu) = d(zeta(x))
        xs = np.linspace(0.0, _span(prof.x_max, 3.0), 41)
        d = P.d_of_zeta(prof.betas, prof.zeta_of_x(xs))
        np.testing.assert_allclose(0.5 * np.log(prof.area(xs)), d,
                                   rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("prof", LINEAR_B, ids=repr)
    def test_maps_match_the_table_backed_route(self, prof):
        b0, b1, _, m = prof.betas
        table = P.BetaFamilyProfile(b0, b1, 0.0, m)
        xs = np.linspace(0.0, _span(min(prof.x_max, table.x_max), 3.0), 41)
        zs = np.linspace(0.0, _span(min(prof.zeta_max, table.zeta_max), 3.0), 41)
        for name, arg in (("area", xs), ("zeta_of_x", xs),
                          ("mu_x_over_mu", xs), ("x_of_zeta", zs)):
            np.testing.assert_allclose(getattr(prof, name)(arg),
                                       getattr(table, name)(arg),
                                       rtol=1e-10, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("prof", [P.ExponentialProfile(-0.1),
                                      P.PowerLawProfile(1.0, 0.1, -0.1)],
                             ids=["exponential", "powerlaw"])
    def test_exponential_maps_are_bitwise_the_horn_formulas(self, prof):
        # c = M + beta1 = 0 exactly, so the general class evaluates the
        # horn's own expressions, rounding for rounding
        alpha, xs = -0.1, np.linspace(0.0, 6.0, 97)
        zs = prof.zeta_of_x(xs)
        np.testing.assert_array_equal(prof.area(xs), np.exp(2.0 * alpha * xs))
        np.testing.assert_array_equal(zs, -np.expm1(-alpha * xs) / alpha)
        np.testing.assert_array_equal(prof.x_of_zeta(zs),
                                      -np.log1p(-alpha * zs) / alpha)
        np.testing.assert_array_equal(prof.mu_x_over_mu(xs),
                                      np.full(xs.shape, alpha))

    @pytest.mark.parametrize("make, betas", [
        (P.ConstantProfile, (1.0, 0.0, 0.0, 0.0)),
        (lambda: P.ExponentialProfile(0.25), (1.0, -0.25, 0.0, 0.25)),
        (lambda: P.SphericalProfile(-4.0), (4.0, 0.0, 0.0, -1.0)),
        (lambda: P.PowerLawProfile(2.0, -0.5, 1.5), (2.0, -0.5, 0.0, 1.5)),
    ], ids=["constant", "exponential", "cone", "powerlaw"])
    def test_constructors_carry_the_betas(self, make, betas):
        prof = make()
        assert isinstance(prof, P.PowerLawProfile) and prof.betas == betas

    def test_constant_maps_return_a_new_array(self):
        x = np.linspace(0.0, 1.0, 5)
        prof = P.ConstantProfile()
        assert prof.zeta_of_x(x) is not x and prof.x_of_zeta(x) is not x

    def test_cone_ends_at_its_focal_point(self):
        # x_max is -beta0/(M + beta1), which is |R| exactly, not -1/c
        prof = P.SphericalProfile(-3.0)
        assert prof.x_max == 3.0 and prof.zeta_max == math.inf
        assert prof.area(math.nextafter(3.0, 0.0)) > 0.0
        with pytest.raises(DomainError):
            prof.x_of_zeta(200.0)   # x rounds onto the focal point

    def test_zeta_rounding_onto_the_open_end(self):
        # the zeta just below zeta_max = -beta0/beta1 passes the range
        # check, yet r zeta rounds to -1, where log1p has no value
        prof = P.PowerLawProfile(3.0, -2.1, 0.0)
        with pytest.raises(DomainError, match="rounds onto the open end"):
            prof.x_of_zeta(math.nextafter(prof.zeta_max, 0.0))

    @pytest.mark.parametrize("args, message", [
        ((0.0, 1.0, 1.0), "beta0"), ((math.inf, 1.0, 1.0), "beta0"),
        ((math.nan, 1.0, 1.0), "beta0"), ((1.0, math.nan, 1.0), "finite"),
        ((1.0, 1.0, -math.inf), "finite"),
    ])
    def test_rejects_non_finite_or_non_positive_betas(self, args, message):
        with pytest.raises(ConfigError, match=message):
            P.PowerLawProfile(*args)

    @pytest.mark.parametrize("make, message", [
        (lambda: P.ExponentialProfile(math.nan), "alpha"),
        (lambda: P.SphericalProfile(0.0), "radius"),
        (lambda: P.SphericalProfile(-math.inf), "radius"),
    ])
    def test_constructors_keep_their_argument_checks(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()


class TestTabulatedProfile:
    @staticmethod
    def _from_exponential(alpha=-0.1, hi=5.0, n=41):
        xs = np.linspace(0.0, hi, n)
        return P.TabulatedProfile(xs, np.exp(2.0 * alpha * xs)), P.ExponentialProfile(alpha)

    def test_matches_source_profile(self):
        tab, ex = self._from_exponential()
        xs = np.linspace(0.0, 5.0, 57)
        assert np.max(np.abs(tab.area(xs) - ex.area(xs))) < 1e-4
        assert abs(tab.zeta_of_x(4.3) - ex.zeta_of_x(4.3)) < 1e-4

    def test_round_trip(self):
        tab, _ = self._from_exponential()
        xs = np.linspace(0.0, 5.0, 23)
        assert np.max(np.abs(tab.x_of_zeta(tab.zeta_of_x(xs)) - xs)) <= 1e-10 * 6.0

    def test_rejects_non_monotone_x(self):
        with pytest.raises(ConfigError):
            P.TabulatedProfile(np.array([0.0, 1.0, 0.5, 2.0]),
                               np.array([1.0, 1.1, 1.2, 1.3]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", ["x", "S"])
    def test_rejects_non_finite_samples(self, bad, column):
        # NaN compares false in the order and sign checks, so it is
        # rejected on its own
        xs, s = np.linspace(0.0, 2.0, 5), np.linspace(1.0, 0.6, 5)
        (xs if column == "x" else s)[3] = bad
        with pytest.raises(ConfigError, match="finite"):
            P.TabulatedProfile(xs, s)

    def test_rejects_unnormalized_section(self):
        with pytest.raises(ConfigError):
            P.TabulatedProfile(np.linspace(0, 1, 5), np.full(5, 2.0))

    @pytest.mark.parametrize("xs, s, message", [
        ([0.0, 1.0, 2.0], [1.0, 0.9, 0.8], "at least 4 points"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.9, 0.8], "matching"),
        ([0.5, 1.0, 2.0, 3.0], [1.0, 0.9, 0.8, 0.7], "start at x = 0"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.9, 0.0, 0.7], "positive"),
    ], ids=["too-few", "mismatched", "offset-start", "zero-section"])
    def test_rejects_malformed_samples(self, xs, s, message):
        with pytest.raises(ConfigError, match=message):
            P.TabulatedProfile(np.array(xs), np.array(s))


@st.composite
def knots(draw, values):
    """Strictly increasing knots with uneven gaps, and one value a knot."""
    n = draw(st.integers(4, 24))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1))
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    return x, np.array(draw(st.lists(values, min_size=n, max_size=n)))


def probes(x):
    """The knots, points between them and points beyond both ends."""
    inside = np.linspace(x[0], x[-1], 97)
    return np.concatenate((x, inside, [x[0] - 0.3, x[-1] + 0.3]))


class TestHermiteTable:
    """The private Hermite table and PCHIP slopes against scipy's
    interpolators, the code they replace."""

    @given(data=knots(st.floats(-5.0, 5.0)),
           slopes=st.lists(st.floats(-5.0, 5.0), min_size=24, max_size=24))
    def test_matches_cubic_hermite_spline(self, data, slopes):
        x, y = data
        slope = np.array(slopes[:x.size])
        table, spline = P._HermiteTable(x, y, slope), CubicHermiteSpline(x, y, slope)
        v = probes(x)
        for nu in (0, 1):
            np.testing.assert_allclose(table(v, nu), spline(v, nu),
                                       rtol=1e-13, atol=1e-13)

    # small integers make flat runs, turns and both end corrections common
    @given(data=knots(st.integers(-3, 3).map(float)))
    def test_pchip_slopes_match_pchip_interpolator(self, data):
        x, y = data
        slope = P._pchip_slopes(x, y)
        pchip = PchipInterpolator(x, y)
        np.testing.assert_allclose(slope, pchip.derivative()(x),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(P._HermiteTable(x, y, slope)(probes(x)),
                                   pchip(probes(x)), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("y, first", [
        pytest.param([0.0, 1.0, 2.0, 3.0, 4.0], 1.0, id="straight"),
        pytest.param([0.0, 1.0, 1.0, 1.0, 0.0], 1.5, id="flat-run"),
        pytest.param([0.0, 1.0, 5.0, 4.0, 0.0], 0.0, id="opposes-end-secant"),
        pytest.param([0.0, 1.0, -3.0, -2.0, 0.0], 3.0, id="overshoots-a-turn"),
    ])
    def test_end_formula_branches(self, y, first):
        # unit gaps: the three-point end slope (3 m0 - m1)/2 as it is, set
        # to 0 against the end secant m0, or held at 3 m0 at a turn
        x = np.arange(5.0)
        slope = P._pchip_slopes(x, np.array(y))
        assert slope[0] == first
        np.testing.assert_allclose(slope, PchipInterpolator(x, y).derivative()(x),
                                   rtol=1e-15, atol=1e-15)

    def test_tabulated_area_is_pchip(self):
        prof = rippled_duct()
        v = np.linspace(0.0, prof.x_max, 301)
        pchip = PchipInterpolator(prof.x_samples, prof.s_samples)
        np.testing.assert_allclose(prof.area(v), pchip(v), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(prof.mu_x_over_mu(v),
                                   pchip.derivative()(v) / (2.0 * pchip(v)),
                                   rtol=1e-13, atol=1e-15)
