"""Tests for the approximate analytic solutions.

The strongest oracle here is a closed form for the small-amplitude field
on an exponentially varying channel: every integral in that expression is
elementary, so the whole path-integral stack is checked end to end.
"""

import math

import numpy as np
import pytest

from hornwave.errors import BreakdownError, DomainError
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

    def test_zero_amplitude_heat_limit(self):
        qpt = perturbative(PhysParams(0.0, 1.0), FLARE, COS, 0.8, GRID)
        assert np.max(np.abs(qpt - math.exp(-0.8) * np.cos(GRID.tau))) <= 1e-13

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
