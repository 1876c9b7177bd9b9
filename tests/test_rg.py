"""Tests for the approximate analytic solutions.

The strongest oracle here is a closed form for the small-amplitude field
on an exponentially varying channel: every integral in that expression is
elementary, so the whole path-integral stack is checked end to end.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hornwave import kernel as kernel_module
from hornwave import rg
from hornwave.errors import (BreakdownError, ConfigError, DomainError,
                             RangeOverflowError)
from hornwave.grid import TauGrid
from hornwave.kernel import (InitialCondition, bessel_i_sequence,
                             heat_propagate)
from hornwave.profiles import ConstantProfile, ExponentialProfile
from hornwave.rg import (
    PhysParams,
    evaluate_station,
    first_order,
    perturbative,
    zero_order,
)
from hornwave.solver import SolverConfig, solve

GRID = TauGrid.periodic_default(256)
COS = InitialCondition.harmonic()
FLARE = ExponentialProfile(-0.1)
RANGE_EXPONENT = math.log(kernel_module._FFT_RANGE_LIMIT)


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

    def node_field(xps, mu_ps):
        return np.array([(nu / mu_p) * k_a(xp) ** 2
                         for xp, mu_p in zip(xps, mu_ps)])

    tail = rg._convolved_path_integral(profile, node_field, x, grid, nu,
                                       rtol=1e-6)
    half = base_aa - (nu / profile.mu(nu, x)) * base_a * base_a - tail
    return nu * base_a + 0.5 * nu * params.a * half


def _per_node_first_order(params, profile, ic, x, grid):
    """q1 node by node: K from ``kernel_k``'s scalar evaluator, one bracket
    and one spectrum a node.

    Returns the path integral and q1, or the breakdown message in its
    place.  ``first_order`` takes its nodes in chunks and must reproduce
    both bit for bit.
    """
    nu = params.nu
    k_at = kernel_module.kernel_k(ic, params.a, nu, grid)
    k_x = k_at(x)

    def node_field(xps, mu_ps):
        return np.array([rg._bracket(k_x if xp == x else k_at(xp), nu / mu_p)
                         for xp, mu_p in zip(xps, mu_ps)])

    with mock.patch.object(rg, "_PATH_SAMPLES", 1):     # one node a chunk
        correction = rg._convolved_path_integral(profile, node_field, x, grid,
                                                 nu, rtol=1e-6)
    try:
        q1 = rg._log_field(params, profile.mu(nu, x), k_x, x, grid,
                           "first-order", correction)
    except BreakdownError as exc:
        q1 = str(exc)
    return correction, q1


def _chunked_first_order(params, profile, ic, x, grid):
    """``first_order``'s path integral and q1, or its breakdown message."""
    corrections = []
    log_field = rg._log_field

    def recorded(*args):
        corrections.append(args[-1])
        return log_field(*args)

    with mock.patch.object(rg, "_log_field", recorded):
        try:
            q1 = first_order(params, profile, ic, x, grid)
        except BreakdownError as exc:
            q1 = str(exc)
    return corrections[0], q1


def assert_same_first_order(got, ref):
    (got_correction, got_q1), (ref_correction, ref_q1) = got, ref
    assert got_correction.tobytes() == ref_correction.tobytes()
    if isinstance(ref_q1, str):
        assert got_q1 == ref_q1
    else:
        assert got_q1.tobytes() == ref_q1.tobytes()


class TestPhysParams:
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
        q0 = zero_order(params, ConstantProfile(), COS, 40.0, GRID)
        assert np.max(np.abs(q0 - math.log(bessel_i_sequence(1, 1.0)[0]))) <= 1e-14

    def test_first_order_collapses_to_zero_order(self):
        params = PhysParams(1.0, 1.0)
        q0 = zero_order(params, ConstantProfile(), COS, 0.7, GRID)
        q1 = first_order(params, ConstantProfile(), COS, 0.7, GRID)
        assert np.array_equal(q0, q1)

    def test_zero_amplitude_is_heat_decay(self):
        params = PhysParams(0.0, 1.0)
        q0 = zero_order(params, ConstantProfile(), COS, 0.5, GRID)
        assert np.max(np.abs(q0 - math.exp(-0.5) * np.cos(GRID.tau))) <= 1e-13

    @pytest.mark.parametrize("nu", [1.0, 0.6])
    def test_zero_amplitude_fields_are_one_heat_smoothing(self, nu):
        # at a = 0 every field is nu dK/da, the heat smoothing of W
        sol = evaluate_station(PhysParams(0.0, nu), FLARE, COS, 0.7, GRID)
        ref = heat_propagate(np.cos(GRID.tau), GRID, nu, 0.7)
        assert np.allclose(sol.q0, ref, atol=1e-14)
        assert sol.q0.tobytes() == sol.q1.tobytes() == sol.qpt.tobytes()


def constant_duct_q0(a_nu, ic, x, grid):
    return evaluate_station(PhysParams(a_nu, 1.0), ConstantProfile(), ic, x,
                            grid, fields=("q0",)).q0


def hopf_lax_envelope(tau, ax):
    """max over xi of cos(xi) - (tau - xi)^2 / (4 a x), for a x < 1/2.

    The bracket is strictly concave there, so Newton's method from
    xi = tau finds its one maximizer.
    """
    xi = tau.copy()
    for _ in range(50):
        xi -= ((np.sin(xi) - (tau - xi) / (2.0 * ax))
               / (np.cos(xi) + 1.0 / (2.0 * ax)))
    return np.cos(xi) - (tau - xi) ** 2 / (4.0 * ax)


@st.composite
def shifted_signals(draw):
    """(table of W, a, span of W, c) at nu = 1: up to three cosine modes on
    a 64-point grid, with a taking exp(a W) to at most the spectral range
    limit.  The span is taken on a dense grid, which bounds it on any
    working grid."""
    grid = TauGrid.periodic_default(64)
    modes = draw(st.lists(st.tuples(st.integers(1, 8), st.floats(-1.0, 1.0),
                                    st.floats(0.0, 2 * math.pi)),
                          min_size=1, max_size=3))

    def w(tau):
        return sum(c * np.cos(j * tau + p) for j, c, p in modes)

    span = max(np.ptp(w(TauGrid.periodic_default(4096).tau)), 1e-3)
    a = draw(st.floats(0.05, 0.98)) * RANGE_EXPONENT / span
    shift = draw(st.floats(-3.0, 3.0))
    assume(a * (span + abs(shift)) <= 300.0)
    return w(grid.tau), grid, a, span, shift


class TestConstantChannelAtStrongCoupling:
    # q0 = (nu/a) log K is the exact Cole-Hopf field on a constant duct, and
    # must stay so in the troughs, where K falls to e^{-2a/nu} of its peak

    @pytest.mark.parametrize("a_nu", [25.0, 50.0])
    def test_q0_matches_the_march(self, a_nu):
        # at n = 1024 the march agrees with a 60-digit Cole-Hopf integral to
        # about 1e-11 at tau = pi
        grid, xs = TauGrid.periodic_default(1024), (0.002, 0.01, 0.05)
        marched = solve(COS, PhysParams(a_nu, 1.0), ConstantProfile(), grid,
                        SolverConfig(tol=1e-10, stations=xs))
        for x, ref in zip(xs, marched.fields):
            q0 = constant_duct_q0(a_nu, COS, x, grid)
            assert np.max(np.abs(q0 - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_q0_tends_to_the_hopf_lax_envelope(self):
        # at fixed a x below breaking the gap to the inviscid envelope
        # falls as nu/a, well past the a/nu the march can afford
        grid, ax = TauGrid.periodic_default(2048), 0.25
        envelope = hopf_lax_envelope(grid.tau, ax)
        ratios = np.array([25.0, 50.0, 100.0, 200.0, 350.0])
        gaps = [np.max(np.abs(constant_duct_q0(r, COS, ax / r, grid)
                              - envelope)) for r in ratios]
        slope = np.polyfit(np.log(ratios), np.log(gaps), 1)[0]
        assert abs(slope + 1.0) <= 0.2

    @settings(max_examples=40)
    @given(signal=shifted_signals(), nux=st.floats(1e-3, 3.0))
    def test_shifting_the_signal_shifts_q0(self, signal, nux):
        # W + c multiplies K by e^{a c / nu}, so q0 moves by c exactly.  Each
        # route rounds K as in test_kernel: the direct sum to a few eps of
        # itself, the spectral one to a few eps of max(e); the exponent and
        # the log add a few eps of |W| + |c|
        w, grid, a, span, shift = signal
        eps = np.finfo(float).eps
        rounding = 16.0 * eps * (np.max(np.abs(w)) + abs(shift))
        for limit, scale in ((kernel_module._FFT_RANGE_LIMIT,
                              math.exp(a * span)), (0.0, 1.0)):
            with (mock.patch.object(kernel_module, "_FFT_RANGE_LIMIT", limit),
                  mock.patch.object(kernel_module, "_circular_convolve",
                                    wraps=kernel_module._circular_convolve)
                  as conv):
                base, moved = [
                    constant_duct_q0(a, InitialCondition.tabulated(w + c, grid),
                                     nux, grid) for c in (0.0, shift)]
            assert (conv.call_count > 0) == (limit == 0.0)
            gap = np.max(np.abs(moved - base - shift))
            assert gap <= 16.0 * eps * scale / a + rounding


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
        # the kernel, the path integral and heat propagation are spectral:
        # every field refuses a windowed grid, and qpt at every a and q1 at
        # a > 0 do so before any kernel work
        grid = TauGrid.windowed(-2.0, 2.0, 17)
        params = PhysParams(a, 1.0)
        for field in ("q0", "q1", "qpt"):
            with pytest.raises(ConfigError):
                evaluate_station(params, FLARE, COS, 0.5, grid, fields=(field,))

        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel work on a windowed grid")

        monkeypatch.setattr(rg, "kernel_quadrature", no_kernel)
        monkeypatch.setattr(rg, "kernel_k", no_kernel)
        fields = {"qpt": perturbative, "q1": first_order}
        for name in ("qpt", "q1") if a > 0.0 else ("qpt",):
            with pytest.raises(ConfigError, match=f"{name} needs a periodic"):
                fields[name](params, FLARE, COS, 0.5, grid)

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
        with pytest.raises(BreakdownError) as err:
            zero_order(params, FLARE, COS, 0.05, GRID)
        assert err.value.x == 0.05
        assert abs(err.value.tau - math.pi) < 1.0

    def test_message_names_min_k_and_its_threshold(self):
        # the zero-order argument (1 - nu/mu) + (nu/mu) K is positive exactly
        # where K > 1 - mu/nu; at a/nu = 25 the trough of K sits below that
        x, grid = 0.01, TauGrid.periodic_default(1024)
        with pytest.raises(BreakdownError) as err:
            zero_order(PhysParams(25.0, 1.0), FLARE, COS, x, grid)
        min_k = float(np.min(
            kernel_module.kernel_quadrature(COS, 25.0, 1.0, x, grid).k))
        threshold = 1.0 - FLARE.mu(1.0, x)
        assert 0.0 < min_k < threshold
        assert f"min K = {min_k:.3e}" in str(err.value)
        assert f"1 - mu/nu = {threshold:.3e}" in str(err.value)
        assert err.value.x == x

    def test_stations_beyond_window_recover(self):
        params = PhysParams(10.0, 1.0)
        q0 = zero_order(params, FLARE, COS, 0.2, GRID)      # no raise
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
        q0 = zero_order(params, FLARE, COS, 0.4, GRID)
        assert np.max(np.abs(sol.q0 - q0)) == 0.0

    def test_q1_station_builds_one_signal_exponential(self, monkeypatch):
        # without q0 there is no station kernel to share: q1 reads K at x
        # from the evaluator it builds for its nodes, and gets the same bytes
        params = PhysParams(1.0, 1.0)
        shared = evaluate_station(params, FLARE, COS, 0.7, GRID,
                                  fields=("q0", "q1")).q1
        calls = []
        build = kernel_module._signal_exponential

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(kernel_module, "_signal_exponential", counted)
        alone = evaluate_station(params, FLARE, COS, 0.7, GRID,
                                 fields=("q1",)).q1
        assert len(calls) == 1
        assert np.array_equal(alone, shared)

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

def offset_cosine(mean):
    grid = TauGrid.periodic_default(64)
    return InitialCondition.tabulated(mean + np.cos(grid.tau), grid), grid


class TestSumsPastTheDoubleRange:
    # mean + cos tau at a/nu = 10 keeps exp(a W / nu) itself finite (max
    # aW/nu 705 to 709), but sums of it over the period are not: a typed
    # error that names the cause, and no numpy warning on the way
    @pytest.mark.parametrize("mean", [69.7, 69.9])
    def test_q0_names_the_overflowing_spectrum(self, mean):
        ic, grid = offset_cosine(mean)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflowError, match="spectrum"):
                evaluate_station(PhysParams(10.0, 1.0), ConstantProfile(), ic,
                                 0.5, grid, fields=("q0",))

    def test_q1_names_the_overflowing_node(self):
        ic, grid = offset_cosine(69.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflowError, match="at x' = 0 "):
                evaluate_station(PhysParams(10.0, 1.0), ConstantProfile(), ic,
                                 0.5, grid, fields=("q1",))

    def test_first_non_finite_row_of_a_chunk_is_named(self):
        # a chunk's spectra are checked together; the error names the first
        # node in node order whose row is not finite, not the chunk
        chunk = rg._PATH_SAMPLES // GRID.n
        chunks = []

        def node_field(xps, mu_ps):
            chunks.append(xps.copy())
            rows = np.ones((xps.size, GRID.n))
            if len(chunks) == 2:
                rows[3, 7], rows[5] = np.inf, np.nan
            return rows

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflowError) as caught:
                rg._convolved_path_integral(FLARE, node_field, 0.7, GRID, 1.0,
                                            rtol=1e-6)
        assert chunk > 5 and len(chunks) == 2 and chunks[1].size > 5
        assert f"at x' = {chunks[1][3]:g} overflows" in str(caught.value)


class TestChunkedNodes:
    # first_order takes each level's nodes in chunks, and must give the
    # bytes of the node-by-node sum it replaced

    @pytest.mark.parametrize("samples", [256, 3 * 256, 7 * 256,
                                         rg._PATH_SAMPLES, 1 << 20])
    def test_spectral_route_matches_per_node(self, monkeypatch, samples):
        # chunks of 1, 3, 7, the default and a whole level, at a/nu = 10;
        # with one node a chunk, x' = x is a chunk of its own
        params, x = PhysParams(10.0, 1.0), 0.7
        level_sizes = []
        profile_cls = type(FLARE)
        mu = profile_cls.mu

        def recorded_mu(self, nu, xs):
            if np.ndim(xs):
                level_sizes.append(np.size(xs))
            return mu(self, nu, xs)

        ref = _per_node_first_order(params, FLARE, COS, x, GRID)
        monkeypatch.setattr(rg, "_PATH_SAMPLES", samples)
        monkeypatch.setattr(profile_cls, "mu", recorded_mu)
        got = _chunked_first_order(params, FLARE, COS, x, GRID)
        assert_same_first_order(got, ref)
        assert isinstance(got[1], np.ndarray)
        chunk = samples // GRID.n
        assert any(size % chunk for size in level_sizes) or chunk == 1

    @pytest.mark.parametrize("a,nu,x,samples,refined", [
        (50.0, 1.0, 0.2, rg._PATH_SAMPLES, False),
        (50.0, 1.0, 0.2, 1, False),
        (5.0, 0.1, 0.1, rg._PATH_SAMPLES, True)])
    def test_direct_route_matches_per_node(self, monkeypatch, a, nu, x,
                                           samples, refined):
        # a/nu = 50 on n = 1024: one direct sum a node, also with one node
        # a chunk.  At nu = 0.1 the node nearest x' = 0 needs a finer
        # working grid than the signal's; there q1 breaks down, and its
        # path integral and message must match
        params, grid = PhysParams(a, nu), TauGrid.periodic_default(1024)
        ref = _per_node_first_order(params, FLARE, COS, x, grid)
        monkeypatch.setattr(rg, "_PATH_SAMPLES", samples)
        builds = []
        build = kernel_module._signal_exponential

        def recorded(*args):
            builds.append(args[4:])
            return build(*args)

        monkeypatch.setattr(kernel_module, "_signal_exponential", recorded)
        got = _chunked_first_order(params, FLARE, COS, x, grid)
        assert_same_first_order(got, ref)
        assert any(builds) == refined
        assert isinstance(got[1], str) == refined


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
        first_order(PhysParams(a_nu, 1.0), FLARE, COS, x, grid)
        nodes = np.concatenate(node_arrays)
        # x' = 0 is the delta limit, and x' = x reuses K at the station,
        # which costs one more sum
        smoothed = np.count_nonzero((nodes > 0.0) & (nodes != x))
        assert smoothed > 0
        assert len(sums) == per_node * (smoothed + 1)

    def test_finer_working_grids_built_once(self, monkeypatch):
        # constant duct, a/nu = 25 on n = 256: the nodes nearest x' = 0 need
        # more samples than the working grid, and each goes to the first
        # doubling of the caller's grid that has them.  Before each size
        # was built once, 210 nodes built the 512-point grid one by one
        grid = TauGrid.periodic_default(256)
        build = kernel_module._signal_exponential
        starts = []

        def recorded(ic, a, nu, caller, min_points=0.0):
            start = caller.n
            while start < min_points:
                start *= 2
            starts.append(start)
            return build(ic, a, nu, caller, min_points)

        monkeypatch.setattr(kernel_module, "_signal_exponential", recorded)
        q1 = first_order(PhysParams(2.5, 0.1), ConstantProfile(), COS, 0.02,
                         grid)
        assert np.all(np.isfinite(q1))
        assert starts[0] == grid.n and len(starts) > 2
        assert len(starts) == len(set(starts))
