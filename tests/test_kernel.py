"""Tests for the heat-kernel field and Bessel machinery.

Cross-checks: an in-test 12-term Bessel series, scipy's exponentially
scaled ive, an extended-precision trapezoid oracle for the kernel field,
agreement between the series and quadrature routes, and agreement between
the spectral and direct smoothing of the quadrature route.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ive

from hornwave import kernel as kernel_module
from hornwave.errors import (
    ConfigError,
    DomainError,
    RangeOverflowError,
    SeriesTailError,
)
from hornwave.grid import TauGrid
from hornwave.kernel import (
    InitialCondition,
    bessel_i_sequence,
    kernel_k,
    kernel_quadrature,
    kernel_series,
)

from heat_reference import heat_propagate

GRID = TauGrid.periodic_default(64)
COS = InitialCondition.harmonic()


def bessel_series_oracle(k, z, terms=12):
    """Plain ascending series, truncated; good to ~1e-15 for z <= 2."""
    total = 0.0
    for j in range(terms):
        total += (z / 2.0) ** (k + 2 * j) / (math.factorial(j) * math.factorial(k + j))
    return total


def scipy_series_field(amplitude, a, nu, x, grid, kmax):
    """K, K_a and K_aa of the harmonic amplitude * cos(tau) from scipy's
    ive, summed to order kmax, with I_k' = (I_{k-1} + I_{k+1}) / 2 and
    I_k'' = (I_{k-2} + 2 I_k + I_{k+2}) / 4."""
    z, k = a * amplitude / nu, np.arange(kmax + 1)
    i = {j: ive(k + j, z) * math.exp(z) for j in (-2, -1, 0, 1, 2)}
    weights = np.where(k == 0, 1.0, 2.0) * np.exp(-nu * k * k * x)
    cosine = np.cos(k[:, None] * grid.tau[None, :])
    s = amplitude / nu
    return ((weights * i[0]) @ cosine,
            s * (weights * 0.5 * (i[-1] + i[1])) @ cosine,
            s * s * (weights * 0.25 * (i[-2] + 2.0 * i[0] + i[2])) @ cosine)


class TestHeatPropagate:
    def test_single_mode_decay(self):
        vals = np.cos(3 * GRID.tau)
        out = heat_propagate(vals, GRID, nu=0.5, x=0.25)
        assert np.allclose(out, math.exp(-0.5 * 9 * 0.25) * vals, atol=1e-14)

    def test_mean_preserved(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(GRID.n)
        out = heat_propagate(vals, GRID, nu=1.0, x=3.0)
        assert np.mean(out) == pytest.approx(np.mean(vals), abs=1e-13)

    def test_zero_distance_is_identity(self):
        vals = np.sin(GRID.tau)
        assert np.array_equal(heat_propagate(vals, GRID, 1.0, 0.0), vals)


class TestBessel:
    def test_order_zero_at_zero(self):
        assert bessel_i_sequence(6, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_against_series_oracle(self):
        i0, i1 = bessel_i_sequence(2, 1.0)
        assert i0 == pytest.approx(1.2660658777520084, rel=1e-14)
        assert i1 == pytest.approx(0.5651591039924851, rel=1e-14)
        for k, value in enumerate(bessel_i_sequence(6, 1.7)):
            assert value == pytest.approx(bessel_series_oracle(k, 1.7), rel=1e-13)

    def test_generating_function_identity(self):
        # e^z = I_0 + 2 sum I_k, both branches of the implementation
        for z in [2.5, 60.0]:
            vals = bessel_i_sequence(200, z)
            assert vals[0] + 2.0 * np.sum(vals[1:]) == pytest.approx(math.exp(z),
                                                                     rel=1e-12)

    @pytest.mark.parametrize("z", [0.2, 1.0, 7.0, 14.9, 15.1, 42.0, 300.0, 699.0])
    def test_against_scipy(self, z):
        orders = np.arange(30)
        mine = bessel_i_sequence(30, z)
        ref = ive(orders, z) * math.exp(z)
        keep = ref > 1e-270
        rel = np.abs(mine[keep] - ref[keep]) / ref[keep]
        assert np.max(rel) <= 1e-12

    def test_negative_argument_parity(self):
        neg, pos = bessel_i_sequence(5, -2.0), bessel_i_sequence(5, 2.0)
        assert neg[3] == -pos[3]
        assert neg[4] == pos[4]

    def test_overflow_guard(self):
        with pytest.raises(RangeOverflowError):
            bessel_i_sequence(1, 701.0)

    def test_rejects_no_orders_and_nan(self):
        with pytest.raises(ConfigError, match="at least one order"):
            bessel_i_sequence(0, 1.0)
        with pytest.raises(DomainError, match="NaN"):
            bessel_i_sequence(3, math.nan)

    def test_start_orders_that_disagree_raise(self):
        # the fraction is taken from two start orders; rows that differ
        # mean it has not converged, which no truncation fixes
        def by_start(count, z, start):
            return np.full(count, float(start))

        with mock.patch.object(kernel_module, "_bessel_ratios",
                               side_effect=by_start):
            with pytest.raises(SeriesTailError, match="z = 123.25"):
                bessel_i_sequence(4, 123.25)

    def test_one_sequence_per_series_call(self):
        with mock.patch.object(kernel_module, "bessel_i_sequence",
                               wraps=bessel_i_sequence) as spy:
            for a in (0.0, 0.5, 10.0, 300.0):
                kernel_series(COS, a, 1.0, 0.3, GRID)
        assert spy.call_count == 4

    @settings(max_examples=120)
    @given(z=st.floats(-700.0, 700.0))
    @example(z=0.0)
    @example(z=1e-300)
    @example(z=700.0)
    @example(z=-700.0)
    def test_series_sequence_matches_scipy_past_its_truncation(self, z):
        # the one sequence kernel_series reads: scipy's to 1e-12 on every
        # order that is not negligible, and long enough to hold two orders
        # past the first one below 1e-14 I_0, where K_aa's sum stops
        seen = []

        def record(count, arg):
            seen.append(bessel_i_sequence(count, arg))
            return seen[-1]

        ic = InitialCondition.harmonic(amplitude=math.copysign(1.0, z))
        with mock.patch.object(kernel_module, "bessel_i_sequence",
                               side_effect=record):
            kernel_series(ic, abs(z), 1.0, 0.3, GRID)
        (vals,) = seen
        orders = np.arange(vals.size)
        ref = ive(orders, z) * math.exp(abs(z))
        keep = np.abs(ref) >= 1e-16 * ref[0]
        assert np.all(np.abs(vals[keep] - ref[keep]) <= 1e-12 * np.abs(ref[keep]))
        tail = np.flatnonzero(np.abs(vals) <= 1e-14 * vals[0])
        assert tail.size and max(tail[0] + 1, 4) + 3 <= vals.size


def longdouble_kernel_field(a, nu, x, grid, n_quad=2048, n_modes=80):
    """Trapezoid sum for the harmonic-signal kernel, all in extended precision.

    Used as the finite-difference base: double precision is too coarse for a
    second difference at step 1e-5.
    """
    ld = np.longdouble
    xi = (2.0 * np.pi * np.arange(n_quad) / n_quad).astype(ld)
    tau = grid.tau.astype(ld)
    theta = np.ones((grid.n, n_quad), dtype=ld)
    for k in range(1, n_modes + 1):
        theta += 2.0 * np.exp(-ld(nu) * k * k * ld(x)) * np.cos(
            k * (tau[:, None] - xi[None, :]))
    weights = np.exp((ld(a) / ld(nu)) * np.cos(xi))
    return theta, xi, weights, (theta @ weights) / n_quad


class TestKernelField:
    def test_delta_limit_at_origin(self):
        kf = kernel_quadrature(COS, 1.0, 1.0, 0.0, GRID)
        assert kf.k[0] == pytest.approx(math.e, abs=1e-14)   # e^{cos 0}
        assert np.min(kf.k) == pytest.approx(1.0 / math.e, abs=1e-14)

    def test_unit_at_zero_amplitude(self):
        # the a = 0 field, nu dK/da, is checked with q0, q1 and qpt in test_rg
        kf = kernel_quadrature(COS, 0.0, 1.0, 0.7, GRID)
        assert np.allclose(kf.k, 1.0, atol=1e-14)
        assert kf.k_a is None and kf.k_aa is None

    @pytest.mark.parametrize("a_nu,nux", [(1.0, 0.08), (1.0, 0.5), (1.0, 2.0),
                                          (10.0, 0.08), (10.0, 0.5), (10.0, 2.0)])
    def test_series_vs_quadrature(self, a_nu, nux):
        kq = kernel_quadrature(COS, a_nu, 1.0, nux, GRID)
        ks = kernel_series(COS, a_nu, 1.0, nux, GRID)
        assert np.max(np.abs(kq.k - ks.k)) <= 1e-10

    def test_scaled_harmonic(self):
        ic = InitialCondition.harmonic(amplitude=0.5, phase=0.3)
        kq = kernel_quadrature(ic, 2.0, 1.0, 0.4, GRID)
        ks = kernel_series(ic, 2.0, 1.0, 0.4, GRID)
        assert np.max(np.abs(kq.k - ks.k)) <= 1e-12

    def test_long_range_limit_is_mean(self):
        # all harmonics decay; only I_0 survives
        kf = kernel_series(COS, 3.0, 1.0, 60.0, GRID)
        assert np.allclose(kf.k, bessel_i_sequence(1, 3.0)[0], atol=1e-14)

    def test_semigroup(self):
        one = kernel_quadrature(COS, 2.0, 1.0, 0.9, GRID)
        half = kernel_quadrature(COS, 2.0, 1.0, 0.4, GRID)
        again = heat_propagate(half.k, GRID, 1.0, 0.5)
        assert np.max(np.abs(one.k - again)) <= 1e-10

    def test_positivity(self):
        for a_nu in [1.0, 10.0, 20.0]:
            for nux in [0.01, 0.5, 10.0]:
                kf = kernel_quadrature(COS, a_nu, 1.0, nux, GRID)
                assert np.min(kf.k) > 0.0

    def test_derivatives_against_central_differences(self):
        a, nu, x, h = 1.0, 1.0, 0.5, 1e-5
        ld = np.longdouble
        theta, xi, _, _ = longdouble_kernel_field(a, nu, x, GRID)
        cos_xi = np.cos(xi)

        def field(aa):
            return (theta @ np.exp((aa / ld(nu)) * cos_xi)) / xi.size

        up, mid, dn = field(ld(a) + ld(h)), field(ld(a)), field(ld(a) - ld(h))
        fd_a = ((up - dn) / (2 * ld(h))).astype(float)
        fd_aa = ((up - 2 * mid + dn) / ld(h) ** 2).astype(float)
        kf = kernel_series(COS, a, nu, x, GRID)
        assert np.max(np.abs(kf.k_a - fd_a)) <= 1e-6 * np.max(np.abs(fd_a))
        assert np.max(np.abs(kf.k_aa - fd_aa)) <= 1e-6 * np.max(np.abs(fd_aa))

    def test_refinement_serves_coarse_grids(self):
        # a/nu = 10 needs ~40 harmonics; a 32-point caller grid must still
        # receive values computed on an adequate working grid
        coarse = TauGrid.periodic_default(32)
        kq = kernel_quadrature(COS, 10.0, 1.0, 0.5, coarse)
        ks = kernel_series(COS, 10.0, 1.0, 0.5, coarse)
        assert np.max(np.abs(kq.k - ks.k)) <= 1e-10

    def test_default_order_covers_the_derivatives(self):
        # harmonic k of K_a carries I_{k-1} and of K_aa I_{k-2}: at small z
        # the default truncation must reach past K's own tail for them
        ic = InitialCondition.harmonic(amplitude=0.5)
        mine = kernel_series(ic, 0.015625, 1.0, 0.0625, GRID)
        ref = scipy_series_field(0.5, 0.015625, 1.0, 0.0625, GRID, kmax=48)
        for got, want in zip((mine.k, mine.k_a, mine.k_aa), ref):
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_sparse_spectrum_refines_the_working_grid(self):
        # exp(a cos 7 tau) has harmonics on multiples of 7 only: on n = 64
        # the bins next to Nyquist stay empty while aliases land on others
        def k_of(grid):
            ic = InitialCondition.tabulated(np.cos(7.0 * grid.tau), grid)
            return kernel_quadrature(ic, 5.18, 1.0, 0.5, grid).k

        ref = k_of(TauGrid.periodic_default(4096))[::4096 // GRID.n]
        assert np.max(np.abs(k_of(GRID) - ref)) <= 1e-13 * np.max(ref)

    def test_rejects_non_harmonic_series(self):
        tab = InitialCondition.tabulated(np.cos(GRID.tau), GRID)
        with pytest.raises(ConfigError):
            kernel_series(tab, 1.0, 1.0, 0.5, GRID)

    def test_series_rejects_other_periods(self):
        with pytest.raises(ConfigError, match="2\\*pi periodic"):
            kernel_series(COS, 1.0, 1.0, 0.5, TauGrid(n=64, period=4.0))

    def test_series_argument_past_the_double_range(self):
        # a / nu overflows to inf: the typed overflow, not a bare int() error
        with pytest.raises(RangeOverflowError, match="exceeds 700"):
            kernel_series(COS, 1e300, 1e-10, 0.5, GRID)


KERNEL_ROUTES = {
    "quadrature": lambda a, nu, x: kernel_quadrature(COS, a, nu, x, GRID),
    "evaluator": lambda a, nu, x: kernel_k(COS, a, nu, GRID)(x),
    "series": lambda a, nu, x: kernel_series(COS, a, nu, x, GRID),
}


@pytest.mark.parametrize("route", sorted(KERNEL_ROUTES))
@pytest.mark.parametrize("a, nu, x, what", [
    (1.0, 0.0, 0.5, "diffusivity"), (1.0, -1.0, 0.5, "diffusivity"),
    (1.0, math.nan, 0.5, "diffusivity"), (1.0, math.inf, 0.5, "diffusivity"),
    (-1.0, 1.0, 0.5, "nonlinearity"), (math.nan, 1.0, 0.5, "nonlinearity"),
    (math.inf, 1.0, 0.5, "nonlinearity"), (1.0, 1.0, math.nan, "station"),
    (1.0, 1.0, -0.5, "station"),
], ids=["nu-zero", "nu-negative", "nu-nan", "nu-inf", "a-negative", "a-nan",
        "a-inf", "x-nan", "x-negative"])
def test_kernel_entry_rejects_values_outside_the_domain(route, a, nu, x, what):
    # NaN fails every comparison, so each check asks for what is allowed
    with pytest.raises(DomainError, match=what):
        KERNEL_ROUTES[route](a, nu, x)


# Each smoothing route rounds to a few eps max(e): the rfft/irfft pair by
# O(log n) eps of the largest sample, the direct sum of nonnegative terms by
# a few eps of its largest term.  Measured: at most 1.9 eps max(e) apart.
ROUTE_GAP = 16.0 * np.finfo(float).eps
RANGE_EXPONENT = math.log(kernel_module._FFT_RANGE_LIMIT)
DENSE = TauGrid.periodic_default(4096).tau


@st.composite
def spectral_signals(draw, lo=0.05, hi=0.98):
    """(signal, a, max W) at nu = 1 with exp(a W) spanning e^{s R}, where
    R = log(_FFT_RANGE_LIMIT) and s is drawn from [lo, hi]: by default at
    most the limit.

    Either a harmonic or a table of up to four random cosine modes on GRID;
    a is scaled from the span of W on a dense grid, which bounds the span on
    any working grid.
    """
    if draw(st.booleans()):
        amp = draw(st.floats(0.1, 2.0))
        ic = InitialCondition.harmonic(amp, draw(st.floats(0.0, 2 * math.pi)))
        w_max, span = amp, 2.0 * amp
    else:
        modes = draw(st.lists(st.tuples(st.integers(1, 8),
                                        st.floats(-1.0, 1.0),
                                        st.floats(0.0, 2 * math.pi)),
                              min_size=1, max_size=4))

        def w(tau):
            return sum(c * np.cos(j * tau + p) for j, c, p in modes)

        ic = InitialCondition.tabulated(w(GRID.tau), GRID)
        dense = w(DENSE)
        w_max, span = dense.max(), dense.max() - dense.min()
    a = draw(st.floats(lo, hi)) * RANGE_EXPONENT / max(span, 1e-3)
    return ic, a, w_max


def periodized_gaussian_k(ic, a, nux):
    """K on GRID by the trapezoid sum of e = exp(a W) against the exact
    periodized Gaussian (nu = 1), on the working grid kernel_k uses there."""
    if nux == 0.0:
        return np.exp(a * ic.sample(GRID))
    fine, e = kernel_module._signal_exponential(
        ic, a, 1.0, GRID, kernel_module._weight_points(GRID, 1.0, nux))
    h = fine.period / fine.n
    images = h * np.arange(fine.n) + fine.period * np.arange(-8, 9)[:, None]
    weights = (h * np.exp(-images ** 2 / (4.0 * nux)).sum(axis=0)
               / math.sqrt(4.0 * math.pi * nux))
    j = np.arange(fine.n)
    return np.array([e[(i - j) % fine.n] @ weights
                     for i in range(0, fine.n, fine.n // GRID.n)])


def counted_convolutions():
    return mock.patch.object(kernel_module, "_circular_convolve",
                             wraps=kernel_module._circular_convolve)


def station_spanning(a, span):
    """nu x at which K of exp(a cos) spans max(e) / min K = span, from the
    Bessel series at the trough tau = pi, a point of every working grid."""
    def excess(nux):
        trough = kernel_series(COS, a, 1.0, nux, GRID).k[GRID.n // 2]
        return a - math.log(trough) - math.log(span)
    return brentq(excess, 1e-3, 5.0, xtol=1e-14)


class TestSmoothingRoutes:
    @settings(max_examples=60)
    @given(signal=spectral_signals(), nux=st.floats(1e-3, 3.0))
    def test_spectral_route_positive_and_close_to_direct(self, signal, nux):
        ic, a, w_max = signal
        with counted_convolutions() as conv:
            spectral = kernel_quadrature(ic, a, 1.0, nux, GRID).k
        assert conv.call_count == 0
        with mock.patch.object(kernel_module, "_FFT_RANGE_LIMIT", 0.0):
            direct = kernel_quadrature(ic, a, 1.0, nux, GRID).k
        assert np.min(spectral) > 0.0
        gap = np.max(np.abs(spectral - direct))
        assert gap <= ROUTE_GAP * math.exp(a * w_max)

    @settings(max_examples=60)
    @given(a_nu=st.floats(0.0, 10.0), amp=st.floats(0.1, 1.0),
           phase=st.floats(0.0, 2 * math.pi), nux=st.floats(0.01, 5.0))
    def test_spectral_route_against_series(self, a_nu, amp, phase, nux):
        ic = InitialCondition.harmonic(amp, phase)
        with counted_convolutions() as conv:
            kq = kernel_quadrature(ic, a_nu, 1.0, nux, GRID)
        assert conv.call_count == 0
        ks = kernel_series(ic, a_nu, 1.0, nux, GRID)
        assert np.max(np.abs(kq.k - ks.k)) <= 1e-10

    @pytest.mark.parametrize("scale,convolutions", [(0.99, 0), (1.01, 1)])
    def test_route_switches_at_the_limit(self, scale, convolutions):
        # the rule is max(e) <= limit * min K, station by station.  At x = 0
        # K is e, and exp(a cos) spans e^{2a}: the limit sits at
        # a = log(limit) / 2.  The row there is e on either route, so the
        # rule's verdict is what shows the switch
        rule, verdicts = kernel_module._spectral_route, []

        def recorded(e_max, k):
            verdicts.append(bool(rule(e_max, k)))
            return verdicts[-1]

        a = scale * 0.5 * RANGE_EXPONENT
        with mock.patch.object(kernel_module, "_spectral_route", recorded):
            k0 = kernel_k(COS, a, 1.0, GRID)(0.0)
        assert verdicts == [scale < 1.0]
        assert np.array_equal(k0, np.exp(a * np.cos(GRID.tau)))
        # a/nu = 15, where e spans e^30, past the limit: at the station
        # whose K spans `scale` times the limit, the spectral row is kept
        # below it and replaced by one direct sum above it
        a = 15.0
        nux = station_spanning(a, scale * kernel_module._FFT_RANGE_LIMIT)
        k_at = kernel_k(COS, a, 1.0, GRID)
        with counted_convolutions() as conv:
            k = k_at(nux)
        assert conv.call_count == convolutions
        ref = periodized_gaussian_k(COS, a, nux)
        assert np.all(np.abs(k - ref) <= ROUTE_GAP * math.exp(a))

    @settings(max_examples=30)
    @given(signal=spectral_signals(25.0 / RANGE_EXPONENT,
                                   120.0 / RANGE_EXPONENT),
           stations=st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=5))
    def test_route_per_station_past_the_limit(self, signal, stations):
        # e spans e^25 to e^120.  Each station keeps its spectral row while
        # max(e) <= limit * min K, and heat smoothing only raises min K as
        # x grows.  A kept row rounds to a few eps max(e); a replaced row is
        # one direct sum, a few eps of K itself at every point
        ic, a, w_max = signal
        k_at = kernel_k(ic, a, 1.0, GRID)
        spectral = []
        for nux in sorted(stations):
            with counted_convolutions() as conv:
                k = k_at(nux)
            ref = periodized_gaussian_k(ic, a, nux)
            assert np.min(k) > 0.0
            assert conv.call_count <= 1
            spectral.append(conv.call_count == 0)
            bound = math.exp(a * w_max) if spectral[-1] else ref
            assert np.all(np.abs(k - ref) <= ROUTE_GAP * bound)
        assert spectral == sorted(spectral)     # spectral from some x on

    @pytest.mark.parametrize("a_nu", [10.0, 50.0])
    def test_k_evaluator_matches_station_kernel(self, a_nu):
        # one evaluator serves every station.  At a/nu = 10, e spans e^20
        # and every station keeps its spectral row.  At a/nu = 50, e spans
        # e^100: nu x = 1e-4 and 0.02 fail the range rule and take one
        # direct sum each, x = 0 is e itself, and by nu x = 0.7 heat
        # smoothing has raised min K enough for the spectral row to pass.
        # The reference sums e against exact periodized Gaussian weights on
        # the working grid, and at a/nu <= 10 the Bessel series checks it as
        # well.  A direct row sums the same nonnegative terms, so it
        # matches the reference at every point; a spectral row rounds to a
        # few eps of max K, and at a/nu = 50 the one at 0.7 meets the
        # pointwise bound too.
        convolutions = {10.0: (0, 0, 0, 0), 50.0: (0, 1, 1, 0)}[a_nu]
        k_at = kernel_k(COS, a_nu, 1.0, GRID)
        for nux, count in zip((0.0, 1e-4, 0.02, 0.7), convolutions):
            with counted_convolutions() as conv:
                got = k_at(nux)
            assert conv.call_count == count
            ref = periodized_gaussian_k(COS, a_nu, nux)
            bound = ROUTE_GAP * (ref if a_nu > 10.0 else np.max(ref))
            assert np.all(np.abs(got - ref) <= bound)
            if a_nu <= 10.0:
                series = kernel_series(COS, a_nu, 1.0, nux, GRID).k
                assert np.max(np.abs(got - series)) <= ROUTE_GAP * np.max(ref)

    def test_circular_convolve_matches_tiled_full_convolution(self):
        # the full convolution of the tiled signal, sliced to [n, 2n), is the
        # form the valid-mode sum replaced; it must agree bit for bit
        rng = np.random.default_rng(5)
        for n in (64, 256, 1024):
            values, weights = rng.random(n), rng.random(n)
            full = np.convolve(np.tile(values, 2), weights)[n:2 * n]
            got = kernel_module._circular_convolve(values, weights)
            assert np.array_equal(got, full)

    def test_direct_weights_hold_no_subnormals(self):
        # at n = 1024 and nu x = 0.001 the far weights underflow: 14 of
        # them land below the smallest normal double, which slows the sum
        # and adds nothing to it; flushed to 0, K is bitwise the full sum
        grid, nux = TauGrid.periodic_default(1024), 1e-3
        e = np.exp(50.0 * np.cos(grid.tau))
        with counted_convolutions() as conv:
            k = kernel_module._direct_sum(e, grid, 1.0, nux)
        weights = conv.call_args.args[1]
        tiny = np.finfo(float).tiny
        assert not np.any((weights > 0.0) & (weights < tiny))
        h, n, spread = grid.period / grid.n, grid.n, 4.0 * nux
        offsets = h * ((np.arange(n) + n // 2) % n - n // 2)
        images = offsets + grid.period * np.arange(-1, 2)[:, None]
        full = (np.exp(-images * images / spread).sum(axis=0)
                * (h / math.sqrt(math.pi * spread)))
        assert np.count_nonzero((full > 0.0) & (full < tiny)) == 14
        assert np.array_equal(k, kernel_module._circular_convolve(e, full))

    def test_smoother_rows_match_single_stations(self):
        # an array of stations gives one row each, bitwise the scalar
        # station's; x = 0 is the signal itself
        f = np.exp(3.0 * np.cos(GRID.tau))
        smooth = kernel_module.heat_smoother(f, GRID, 0.7)
        xs = np.array([0.3, 0.0, 1e-3, 2.0])
        rows = smooth(xs)
        assert rows.shape == (xs.size, GRID.n)
        for row, x in zip(rows, xs):
            assert np.array_equal(row, smooth(x))
        assert np.array_equal(rows[1], f)

    @pytest.mark.parametrize("a_nu", [10.0, 50.0])
    def test_k_evaluator_rows_match_single_stations(self, a_nu):
        # 1e-4 needs a finer working grid on the direct route (a/nu = 50)
        k_at = kernel_k(COS, a_nu, 1.0, GRID)
        xs = np.array([0.0, 1e-4, 0.02, 0.7])
        rows = k_at(xs)
        assert rows.shape == (xs.size, GRID.n)
        for row, x in zip(rows, xs):
            assert np.array_equal(row, k_at(x))
        with pytest.raises(DomainError, match="got -0.1"):
            k_at(np.array([0.3, -0.1]))

    def test_k_evaluator_builds_each_finer_grid_once(self):
        # a/nu = 25 on n = 256 takes the direct route; these stations need
        # 512, 1024 and 2048 samples, two stations each.  Every row is
        # bitwise a fresh build's on the grid its weights need
        grid, a, nu = TauGrid.periodic_default(256), 2.5, 0.1
        xs = np.array([0.02, 0.01, 0.005, 0.004, 0.0015, 0.001])
        build = kernel_module._signal_exponential
        with mock.patch.object(kernel_module, "_signal_exponential",
                               wraps=build) as spy:
            k_at = kernel_k(COS, a, nu, grid)
            rows = [k_at(x) for x in xs] + list(k_at(xs[::-1]))[::-1]
        assert spy.call_count == 4
        for x, row, again in zip(xs, rows, rows[xs.size:]):
            need = kernel_module._weight_points(grid, nu, x)
            fine, e = build(COS, a, nu, grid, need)
            assert fine.n > grid.n
            ref = kernel_module._direct_sum(e, fine, nu, x)
            assert np.array_equal(row, ref[::fine.n // grid.n])
            assert np.array_equal(again, row)

    def test_k_evaluator_rejects_windowed_grid(self):
        with pytest.raises(ConfigError):
            kernel_k(COS, 1.0, 1.0, TauGrid.windowed(-1.0, 1.0, 17))


class TestInitialCondition:
    def test_harmonic_eval(self):
        ic = InitialCondition.harmonic(amplitude=2.0, phase=0.5)
        w = ic.sample(TauGrid(n=16, start=0.5))     # tau = 0.5 + k pi / 8
        assert w[[0, 4, 8]] == pytest.approx([2.0, 0.0, -2.0], abs=1e-15)

    def test_tabulated_resample_exact_for_band_limited(self):
        vals = np.cos(3 * GRID.tau) + 0.5 * np.sin(7 * GRID.tau)
        ic = InitialCondition.tabulated(vals, GRID)
        fine = GRID.refined(4)
        expect = np.cos(3 * fine.tau) + 0.5 * np.sin(7 * fine.tau)
        assert np.max(np.abs(ic.sample(fine) - expect)) <= 1e-13

    def test_resample_keeps_nyquist_cosine(self):
        vals = np.cos((GRID.n // 2) * GRID.tau)
        ic = InitialCondition.tabulated(vals, GRID)
        fine = GRID.refined(2)
        expect = np.cos((GRID.n // 2) * fine.tau)
        assert np.max(np.abs(ic.sample(fine) - expect)) <= 1e-13

    def test_rejects_unrelated_grid(self):
        ic = InitialCondition.tabulated(np.cos(GRID.tau), GRID)
        with pytest.raises(ConfigError):
            ic.sample(TauGrid(n=64, period=4.0))

    def test_rejects_windowed_table(self):
        grid = TauGrid.windowed(-1.0, 1.0, 17)
        with pytest.raises(ConfigError, match="periodic grid"):
            InitialCondition.tabulated(np.cos(grid.tau), grid)

    @pytest.mark.parametrize("amplitude, phase", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan),
        (1.0, math.inf)])
    def test_harmonic_rejects_non_finite(self, amplitude, phase):
        with pytest.raises(ConfigError, match="must be finite"):
            InitialCondition.harmonic(amplitude=amplitude, phase=phase)

    def test_rejects_bad_table(self):
        with pytest.raises(ConfigError):
            InitialCondition.tabulated(np.zeros(GRID.n - 1), GRID)
        bad = np.zeros(GRID.n)
        bad[3] = np.nan
        with pytest.raises(ConfigError):
            InitialCondition.tabulated(bad, GRID)
