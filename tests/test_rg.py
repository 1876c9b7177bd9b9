"""Tests for the approximate analytic solutions.

The strongest oracle here is a closed form for the small-amplitude field
on an exponentially varying channel: every integral in that expression is
elementary, so the whole path-integral stack is checked end to end.
"""

import math
import warnings

import numpy as np
import pytest

from hornwave import kernel as kernel_module
from hornwave import rg
from hornwave.errors import (BreakdownError, ConfigError, DomainError,
                             RangeOverflowError)
from hornwave.grid import TauGrid
from hornwave.kernel import InitialCondition, bessel_i, kernel_quadrature
from hornwave.profiles import ConstantProfile, ExponentialProfile
from hornwave.rg import (
    PhysParams,
    evaluate_station,
    first_order,
    perturbative,
    zero_order,
)

GRID = TauGrid.periodic_default(256)
COS = InitialCondition.harmonic()
FLARE = ExponentialProfile(-0.1)


def small_amplitude_oracle(a, nu, alpha, x, tau):
    """Closed form for the O(a) field on S = exp(2 alpha x), W = cos.

    Every convolution collapses onto one or two harmonics and the path
    integral becomes two elementary exponential integrals.
    """
    A0 = -math.expm1(-(alpha + 2 * nu) * x) / (alpha + 2 * nu)
    A1 = math.expm1((2 * nu - alpha) * x) / (2 * nu - alpha)
    c2 = np.cos(2 * tau)
    half = (0.5 + 0.5 * math.exp(-4 * nu * x) * c2
            - math.exp(-(alpha + 2 * nu) * x) * (0.5 + 0.5 * c2)
            - 0.5 * alpha * (A0 + math.exp(-4 * nu * x) * A1 * c2))
    return math.exp(-nu * x) * np.cos(tau) + (a / (2 * nu)) * half


def _reference_perturbative(params, profile, ic, x, grid):
    """qpt with one ``heat_propagate`` call per path-integral node.

    ``perturbative`` takes the spectrum once per station instead and must
    reproduce this bit for bit.
    """
    nu, fine = params.nu, grid.refined(2)
    wn = ic.sample(fine) / nu

    def k_a(xp):
        return kernel_module.heat_propagate(wn, fine, nu, xp)[::2]

    base_a = k_a(x)
    base_aa = kernel_module.heat_propagate(wn * wn, fine, nu, x)[::2]
    tail = rg._convolved_path_integral(
        profile, lambda xp, mu_p: (nu / mu_p) * k_a(xp) ** 2, x, grid, nu,
        rtol=1e-6)
    half = base_aa - (nu / profile.mu(nu, x)) * base_a * base_a - tail
    return nu * base_a + 0.5 * nu * params.a * half


class TestPhysParams:
    def test_reynolds(self):
        assert PhysParams(a=3.0, nu=1.5).reynolds == 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            PhysParams(a=1.0, nu=0.0)
        with pytest.raises(DomainError):
            PhysParams(a=-0.5, nu=1.0)


class TestBoundaryRecovery:
    def test_all_fields_equal_signal_at_origin(self):
        sol = evaluate_station(PhysParams(1.0, 1.0), FLARE, COS, 0.0, GRID)
        w = np.cos(GRID.tau)
        for field in (sol.q0, sol.q1, sol.qpt):
            assert np.max(np.abs(field - w)) <= 1e-14

    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("field", ["q0", "q1", "qpt"])
    def test_negative_station_rejected(self, field, a):
        with pytest.raises(DomainError, match="station must be >= 0"):
            evaluate_station(PhysParams(a, 1.0), FLARE, COS, -0.1, GRID,
                             fields=(field,))

    def test_tabulated_signal(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(5)
        w = sum(c * np.cos((j + 1) * GRID.tau) for j, c in enumerate(coeffs))
        ic = InitialCondition.tabulated(w, GRID)
        sol = evaluate_station(PhysParams(0.8, 1.0), FLARE, ic, 0.0, GRID,
                               fields=("q0", "q1"))
        assert np.max(np.abs(sol.q0 - w)) <= 1e-12
        assert np.max(np.abs(sol.q1 - w)) <= 1e-12


class TestConstantChannel:
    def test_far_field_saturates_at_log_mean(self):
        # all harmonics decay, K -> I_0(a/nu), so q -> (nu/a) log I_0
        params = PhysParams(1.0, 1.0)
        kf = kernel_quadrature(COS, 1.0, 1.0, 40.0, GRID)
        q0 = zero_order(params, ConstantProfile(), kf)
        assert np.max(np.abs(q0 - math.log(bessel_i(0, 1.0)))) <= 1e-14

    def test_first_order_collapses_to_zero_order(self):
        params = PhysParams(1.0, 1.0)
        kf = kernel_quadrature(COS, 1.0, 1.0, 0.7, GRID)
        q0 = zero_order(params, ConstantProfile(), kf)
        q1 = first_order(params, ConstantProfile(), COS, 0.7, GRID,
                         outer_kernel=kf)
        assert np.array_equal(q0, q1)

    def test_zero_amplitude_is_heat_decay(self):
        params = PhysParams(0.0, 1.0)
        kf = kernel_quadrature(COS, 0.0, 1.0, 0.5, GRID)
        q0 = zero_order(params, ConstantProfile(), kf)
        assert np.max(np.abs(q0 - math.exp(-0.5) * np.cos(GRID.tau))) <= 1e-13


class TestSmallAmplitude:
    @pytest.mark.parametrize("a,nu,x", [(0.05, 1.0, 1.0), (0.3, 1.0, 0.5),
                                        (0.2, 0.7, 1.3)])
    def test_against_closed_form(self, a, nu, x):
        qpt = perturbative(PhysParams(a, nu), ExponentialProfile(-0.1),
                           COS, x, GRID)
        ref = small_amplitude_oracle(a, nu, -0.1, x, GRID.tau)
        assert np.max(np.abs(qpt - ref)) <= 1e-8

    @pytest.mark.parametrize("a,nu,x", [(0.3, 1.0, 0.5), (0.2, 0.7, 1.3)])
    def test_matches_per_node_heat_propagation(self, a, nu, x):
        args = (PhysParams(a, nu), FLARE, COS, x, GRID)
        assert perturbative(*args).tobytes() \
            == _reference_perturbative(*args).tobytes()

    def test_zero_amplitude_heat_limit(self):
        qpt = perturbative(PhysParams(0.0, 1.0), FLARE, COS, 0.8, GRID)
        assert np.max(np.abs(qpt - math.exp(-0.8) * np.cos(GRID.tau))) <= 1e-13

    @pytest.mark.parametrize("x", [0.01, 0.05, 1.0])
    def test_non_harmonic_signal_against_cosine_sums(self, x):
        # constant duct: the tail weight mu_x/mu is 0 and nu/mu = 1, so
        # qpt = nu K_a + (a nu / 2)(K_aa - K_a^2), with K_a and K_aa the heat
        # propagation of W/nu and (W/nu)^2.  W^2 reaches mode 40, past the
        # Nyquist mode 32 of the n = 64 grid.
        a, nu = 0.3, 0.8
        coeffs = {1: 1.0, 5: 0.3, 20: 0.2}
        grid = TauGrid.periodic_default(64)
        w = sum(c * np.cos(j * grid.tau) for j, c in coeffs.items())

        def mode(m):
            return math.exp(-nu * m * m * x) * np.cos(m * grid.tau)

        k_a = sum(c * mode(j) for j, c in coeffs.items()) / nu
        # cos(j t) cos(l t) = (cos((j - l) t) + cos((j + l) t)) / 2
        k_aa = sum(cj * cl * 0.5 * (mode(j - l) + mode(j + l))
                   for j, cj in coeffs.items()
                   for l, cl in coeffs.items()) / nu ** 2
        ref = nu * k_a + 0.5 * a * nu * (k_aa - k_a * k_a)
        qpt = perturbative(PhysParams(a, nu), ConstantProfile(),
                           InitialCondition.tabulated(w, grid), x, grid)
        assert np.max(np.abs(qpt - ref)) <= 1e-13

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_windowed_grid_fails_fast(self, monkeypatch, a):
        # the path integral and heat propagation are spectral: a windowed
        # grid is refused before any kernel work, by qpt at every a and by
        # q1 at a > 0; at a = 0, q1 is heat decay and windowed kernels serve it
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel work on a windowed grid")

        monkeypatch.setattr(rg, "kernel_quadrature", no_kernel)
        monkeypatch.setattr(kernel_module, "adaptive_quad", no_kernel)
        ic = InitialCondition.from_callable(np.cos, window=(-20.0, 20.0))
        grid = TauGrid.windowed(-2.0, 2.0, 17)
        fields = {"qpt": perturbative, "q1": first_order}
        for name in ("qpt", "q1") if a > 0.0 else ("qpt",):
            with pytest.raises(ConfigError, match=f"{name} needs a periodic"):
                fields[name](PhysParams(a, 1.0), FLARE, ic, 0.5, grid)
        if a == 0.0:
            monkeypatch.undo()
            q1 = evaluate_station(PhysParams(a, 1.0), FLARE, ic, 0.5, grid,
                                  fields=("q1",)).q1
            heat = math.exp(-0.5) * np.cos(grid.tau)
            assert np.max(np.abs(q1 - heat)) <= 1e-9

    def test_quadratic_agreement_with_first_order(self):
        # quick two-point version of the full scaling study
        diffs = []
        for a in (0.04, 0.08):
            params = PhysParams(a, 1.0)
            d = first_order(params, FLARE, COS, 1.0, GRID) \
                - perturbative(params, FLARE, COS, 1.0, GRID)
            diffs.append(np.max(np.abs(d)))
        assert diffs[1] / diffs[0] == pytest.approx(4.0, rel=0.15)


class TestBreakdown:
    def test_zero_order_raises_in_window(self):
        # strong nonlinearity, narrowing channel: the log argument dips
        # negative near the throat before recovering downstream
        params = PhysParams(10.0, 1.0)
        kf = kernel_quadrature(COS, 10.0, 1.0, 0.05, GRID)
        with pytest.raises(BreakdownError) as err:
            zero_order(params, FLARE, kf)
        assert err.value.x == 0.05
        assert abs(err.value.tau - math.pi) < 1.0

    def test_stations_beyond_window_recover(self):
        params = PhysParams(10.0, 1.0)
        kf = kernel_quadrature(COS, 10.0, 1.0, 0.2, GRID)
        q0 = zero_order(params, FLARE, kf)      # no raise
        assert np.all(np.isfinite(q0))

    def test_first_order_integrates_through_window(self):
        # the station is regular even though interior stations break down;
        # the continuously extended integrand must carry the integral across
        params = PhysParams(10.0, 1.0)
        q1 = first_order(params, FLARE, COS, 0.5, GRID)
        assert np.all(np.isfinite(q1))


class TestEvaluateStation:
    def test_requested_fields_only(self):
        sol = evaluate_station(PhysParams(1.0, 1.0), FLARE, COS, 0.3, GRID,
                               fields=("qpt",))
        assert sol.q0 is None and sol.q1 is None
        assert sol.qpt is not None

    def test_shared_kernel_consistency(self):
        params = PhysParams(1.0, 1.0)
        sol = evaluate_station(params, FLARE, COS, 0.4, GRID,
                               fields=("q0", "q1"))
        kf = kernel_quadrature(COS, 1.0, 1.0, 0.4, GRID)
        assert np.max(np.abs(sol.q0 - zero_order(params, FLARE, kf))) == 0.0


    @pytest.mark.parametrize("field", ["q0", "q1"])
    def test_signal_exponential_overflow_is_named(self, field):
        # exp(a W / nu) = exp(800) is past the double range: no working
        # grid can fix that, so it fails at once, without numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflowError,
                               match=r"a/nu = 800, max aW/nu = 800"):
                evaluate_station(PhysParams(800.0, 1.0), FLARE, COS, 1.0,
                                 TauGrid.periodic_default(1024),
                                 fields=(field,))

class TestPathIntegralNodes:
    @pytest.mark.parametrize("field", ["q1", "qpt"])
    def test_each_node_evaluated_once(self, monkeypatch, field):
        # the profile is asked once per level, on an array of new nodes;
        # no node's kernel is built twice, and qpt builds none
        weight_args, kernel_stations = [], []
        profile_cls = type(FLARE)
        weight, kernel = profile_cls.mu_x_over_mu, rg.kernel_quadrature

        def counted_weight(self, x):
            weight_args.append(x)
            return weight(self, x)

        def counted_kernel(*args):
            kernel_stations.append(args[3])
            return kernel(*args)

        monkeypatch.setattr(profile_cls, "mu_x_over_mu", counted_weight)
        monkeypatch.setattr(rg, "kernel_quadrature", counted_kernel)
        sol = evaluate_station(PhysParams(1.0, 1.0), FLARE, COS, 0.7, GRID,
                               fields=(field,))
        assert getattr(sol, field) is not None
        assert 0 < len(weight_args) <= rg._QUAD_MAX_DOUBLINGS + 2
        assert all(isinstance(x, np.ndarray) and x.ndim == 1
                   for x in weight_args)
        assert len(kernel_stations) == len(set(kernel_stations))
        if field == "qpt":
            assert kernel_stations == []

    @pytest.mark.parametrize("a_nu,per_node", [(10.0, 0), (50.0, 1)])
    def test_direct_sums_per_node(self, monkeypatch, a_nu, per_node):
        # the nodes read K alone: spectrally below the range limit of the
        # signal exponential (e^20 here), by one direct sum above it (e^100)
        grid, x = TauGrid.periodic_default(64), 0.5
        outer = kernel_quadrature(COS, a_nu, 1.0, x, grid)
        node_arrays, sums = [], []
        profile_cls = type(FLARE)
        mu, convolve = profile_cls.mu, kernel_module._circular_convolve

        def recorded_mu(self, nu, xs):
            if np.ndim(xs):
                node_arrays.append(np.array(xs))
            return mu(self, nu, xs)

        def counted_convolve(*args):
            sums.append(1)
            return convolve(*args)

        monkeypatch.setattr(profile_cls, "mu", recorded_mu)
        monkeypatch.setattr(kernel_module, "_circular_convolve",
                            counted_convolve)
        first_order(PhysParams(a_nu, 1.0), FLARE, COS, x, grid,
                    outer_kernel=outer)
        nodes = np.concatenate(node_arrays)
        # x' = 0 is the delta limit and x' = x reuses the station kernel
        smoothed = np.count_nonzero((nodes > 0.0) & (nodes != x))
        assert smoothed > 0
        assert len(sums) == per_node * smoothed
