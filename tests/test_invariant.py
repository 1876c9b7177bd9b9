"""Shape-preserving solutions: similarity map, factor ODE, orbit quadrature,
and field assembly, each checked against an independent route."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from hornwave.errors import (BlowUpError, ConfigError, CoverageError,
                             DomainError, HornWaveError, RangeOverflowError,
                             SingularProfileError)
from hornwave.grid import TauGrid
from hornwave.invariant import (InvariantConfig, OrbitTable,
                                ShapeTable, _cumulative_simpson,
                                assemble_invariant_q,
                                first_integral_solution, integrate_factor_ode,
                                nested_area_integral, similarity_vars)
from hornwave.profiles import (BetaFamilyProfile, PowerLawProfile,
                               classifying_b, d_of_zeta)
from hornwave.rg import PhysParams
from hornwave.solver import residual

UNIT = PhysParams(1.0, 1.0)


def build_quietly(m, a, c0, nu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return first_integral_solution(m, a, c0, nu=nu)


def energy_defect(orbit, m, a, c0, nu):
    """max |W'^2 - R| / max |R| over two periods, with R formed from
    W / (nu/a) so that no intermediate leaves the double range."""
    lam = orbit.phase + np.linspace(0.0, 2.0 * orbit.period, 1501)
    u = orbit(lam) / (nu / a)
    r = c0 * np.exp(-2.0 * u) + (m * (nu / a) / (2.0 * a)) * (2.0 * u - 1.0)
    return float(np.max(np.abs(orbit.slope(lam) ** 2 - r)) / np.max(np.abs(r)))


class TestSimilarityVars:
    def test_throat_is_identity_scaled_by_sqrt_beta0(self):
        tau = np.linspace(-2.0, 2.0, 9)
        lam, d = similarity_vars((4.0, 0.7, -0.2, 1.3), 0.0, tau)
        assert d == 0.0
        np.testing.assert_allclose(lam, tau / 2.0, rtol=0, atol=1e-15)

    def test_arctan_family_quarter_turn(self):
        # betas (1, 0, 1, 2) at zeta=1: d = 2*arctan(1) = pi/2
        lam, d = similarity_vars((1.0, 0.0, 1.0, 2.0), 1.0, 1.0)
        assert abs(d - math.pi / 2) < 1e-14
        assert abs(lam - math.exp(-math.pi / 4) / math.sqrt(2)) < 1e-14

    def test_definition_identity(self):
        # lam * sqrt(b) * exp(d/2) recovers tau for any regular betas
        tau = np.array([-1.3, 0.4, 2.2])
        for betas, z in [((1.0, 0.5, 0.0, 1.2), 0.9),
                         ((2.0, -0.3, 0.0, 0.8), 1.5),
                         ((1.0, 0.2, 0.4, -0.6), 0.7)]:
            lam, d = similarity_vars(betas, z, tau)
            b0, b1, b2, _ = betas
            b = b0 + b1 * z + b2 * z * z
            np.testing.assert_allclose(lam * math.sqrt(b) * math.exp(0.5 * d),
                                       tau, rtol=1e-12)

    def test_power_law_collapses_to_inverse_sqrt_of_base(self):
        # with beta2 = 0, written in the physical coordinate the scaling is
        # lam = (tau / sqrt(beta0)) * (1 + (beta1 + M) x / beta0) ** (-1/2);
        # follows from exp(d) = base ** (M / (M + beta1)) under the same map
        tau = 0.83
        for beta0, beta1, m in [(1.0, 0.5, 1.2), (2.0, -0.3, 0.8), (1.0, 0.0, 0.7)]:
            profile = PowerLawProfile(beta0, beta1, m)
            for z in (0.3, 0.9):
                x = profile.x_of_zeta(z)
                base = 1.0 + (beta1 + m) * x / beta0
                expected = tau / math.sqrt(beta0) / math.sqrt(base)
                lam, _ = similarity_vars((beta0, beta1, 0.0, m), z, tau)
                assert abs(lam - expected) < 1e-12 * abs(expected)

    def test_constant_flare_branch_is_zeta_free(self):
        betas = (1.5, 0.8, 0.0, -0.8)  # beta1 = -M
        lam0, _ = similarity_vars(betas, 0.0, 1.0)
        lam1, _ = similarity_vars(betas, 1.7, 1.0)
        assert abs(lam0 - lam1) < 1e-12

    def test_singular_b_raises(self):
        # b = 1 - 2 z + 0.5 z^2 crosses zero near z = 0.586
        with pytest.raises(SingularProfileError):
            similarity_vars((1.0, -2.0, 0.5, 1.0), 1.0, 0.3)

    def test_negative_zeta_rejected(self):
        with pytest.raises(DomainError):
            similarity_vars((1.0, 0.0, 0.0, 1.0), -0.1, 0.3)

    def test_non_positive_b_without_a_root_raises(self):
        # b = -1 has no root for d_of_zeta to find, but is not positive
        with pytest.raises(SingularProfileError, match=r"b\(0.5\) = -1 is not"):
            similarity_vars((-1.0, 0.0, 0.0, 1.0), 0.5, 1.0)


class TestInvariantConfig:
    def test_requires_positive_beta0(self):
        with pytest.raises(ConfigError):
            InvariantConfig(betas=(0.0, 0.0, 0.0, 1.0), params=UNIT, c0=-0.1)

    def test_requires_nonzero_flare_index(self):
        with pytest.raises(ConfigError):
            InvariantConfig(betas=(1.0, 0.0, 0.0, 0.0), params=UNIT, c0=-0.1)

    def test_requires_positive_a(self):
        with pytest.raises(ConfigError):
            InvariantConfig(betas=(1.0, 0.0, 0.0, 1.0),
                            params=PhysParams(0.0, 1.0), c0=-0.1)

    def test_requires_some_selecting_data(self):
        with pytest.raises(ConfigError):
            InvariantConfig(betas=(1.0, 0.0, 0.0, 1.0), params=UNIT)

    @pytest.mark.parametrize("betas", [
        (math.nan, 0.0, 0.0, -1.0), (math.inf, 0.0, 0.0, -1.0),
        (1.0, math.nan, 0.0, -1.0), (1.0, 0.0, -math.inf, -1.0),
        (1.0, 0.0, 0.0, math.nan)])
    def test_rejects_non_finite_betas(self, betas):
        # a NaN beta0 passed the b0 <= 0 test and the config was built
        with pytest.raises(ConfigError, match="betas must be finite"):
            InvariantConfig(betas=betas, params=UNIT, c0=-0.1)

    @pytest.mark.parametrize("data", [
        dict(w0=math.nan, w0_slope=0.0), dict(w0=0.0, w0_slope=math.inf),
        dict(c0=math.nan), dict(c0=-0.1, c1=math.nan),
        dict(w0=0.0, w0_slope=1.0, c1=-math.inf)])
    def test_rejects_non_finite_data(self, data):
        # a NaN w0 or an infinite w0_slope stalled the factor ODE, a NaN
        # c0 overflowed the orbit's range and a NaN c1 gave an all-NaN W
        with pytest.raises(ConfigError, match="must be finite"):
            InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=UNIT, **data)

    def test_either_route_accepted(self):
        InvariantConfig(betas=(1.0, 0.0, 0.0, 1.0), params=UNIT, c0=-0.1)
        InvariantConfig(betas=(1.0, 0.0, 0.0, 1.0), params=UNIT,
                        w0=0.0, w0_slope=1.0)


def fixed_step_rk4(betas, a, nu, lam_max, nsteps, w0, s0):
    """Independent fixed-step integrator for the factor ODE."""
    b0, b1, b2, m = betas
    h = lam_max / nsteps

    def f(lam, y):
        w, s = y
        return np.array([s, (m * w - a * s * s - 0.5 * (m + b1) * lam * s
                             - (b0 * b2 / (4.0 * a)) * lam * lam) / nu])

    y = np.array([w0, s0], dtype=float)
    lam = 0.0
    out = [y[0]]
    for _ in range(nsteps):
        k1 = f(lam, y)
        k2 = f(lam + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(lam + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(lam + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lam += h
        out.append(y[0])
    return np.array(out)


def scipy_factor_ode(cfg, end, max_step):
    """The factor ODE through scipy's RK45 at the library's tolerances,
    stopped by a terminal event where |W| reaches 1e8."""
    b0, b1, b2, m = cfg.betas
    a, nu = cfg.params.a, cfg.params.nu

    def rhs(lam, y):
        w, s = y
        return [s, (m * w - a * s * s - 0.5 * (m + b1) * lam * s
                    - (b0 * b2 / (4.0 * a)) * lam * lam) / nu]

    def escape(lam, y):
        return abs(y[0]) - 1e8

    escape.terminal = True
    return integrate.solve_ivp(rhs, (0.0, end), (cfg.w0, cfg.w0_slope),
                               method="RK45", rtol=1e-10, atol=1e-10,
                               dense_output=True, events=escape,
                               max_step=max_step)


def march_outcomes(cfg, lam_max, lam_min):
    """What the library's march and scipy's RK45 make of one config: an
    escape lam, the lam where the step stalled, or both tables."""
    try:
        table = integrate_factor_ode(cfg, lam_max, lambda_min=lam_min)
        ours = ("table", table)
    except BlowUpError as err:
        ours = ("escape", err.escape)
    except HornWaveError as err:
        assert "stalled" in str(err)
        ours = ("stall", float(re.search(r"lam = (\S+):", str(err)).group(1)))
    for end in (lam_max, lam_min):
        sol = scipy_factor_ode(cfg, end, lam_max / 256.0)
        if sol.t_events[0].size:
            return ours, ("escape", float(sol.t_events[0][0]))
        if sol.status == -1:
            return ours, ("stall", float(sol.t[-1]))
    return ours, ("table", None)


class TestAgainstScipy:
    """The march and the orbit's running integral against the scipy
    routines they replace, at the same tolerances."""

    @given(y=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=40),
           dx=st.floats(1e-3, 10.0))
    def test_cumulative_simpson(self, y, dx):
        y = np.array(y)
        want = integrate.cumulative_simpson(y, dx=dx, initial=0.0)
        np.testing.assert_allclose(_cumulative_simpson(y, dx), want, rtol=1e-13,
                                   atol=1e-13 * dx * (1.0 + np.sum(np.abs(y))))

    @pytest.mark.parametrize("betas, params, w0, w0_slope, lam_max, lam_min, kind", [
        pytest.param((1.0, 0.0, 1.0, 1.0), UNIT, 0.3, 0.0, 1.0, -1.0, "table",
                     id="both-sides"),
        pytest.param((1.0, 1.0, 0.0, -1.0), UNIT, 0.0, 1.0, 3.0, 0.0, "table",
                     id="forward"),
        pytest.param((1.0, -25.0, 0.0, 25.0), PhysParams(1e-8, 1.0), 1.0, 0.0,
                     5.0, 0.0, "escape", id="escape"),
        pytest.param((1.0, 1.0, 0.0, -1.0), UNIT, 0.0, 1.0, 1.0, -1.5, "stall",
                     id="stall"),
    ])
    def test_march_matches_rk45(self, betas, params, w0, w0_slope, lam_max,
                                lam_min, kind):
        cfg = InvariantConfig(betas=betas, params=params, w0=w0, w0_slope=w0_slope)
        ours, theirs = march_outcomes(cfg, lam_max, lam_min)
        assert ours[0] == theirs[0] == kind
        self.assert_same(cfg, ours, theirs, lam_max, lam_min)

    @settings(max_examples=30)
    @given(b1=st.floats(-2.0, 2.0), b2=st.floats(-1.0, 1.0),
           m=st.floats(0.1, 2.0), m_sign=st.sampled_from([-1.0, 1.0]),
           a=st.floats(0.2, 3.0), nu=st.floats(0.05, 2.0),
           w0=st.floats(-1.0, 1.0), w0_slope=st.floats(-2.0, 2.0),
           lam_max=st.floats(0.5, 4.0), backward=st.booleans())
    def test_march_matches_rk45_anywhere(self, b1, b2, m, m_sign, a, nu, w0,
                                         w0_slope, lam_max, backward):
        cfg = InvariantConfig(betas=(1.0, b1, b2, m_sign * m),
                              params=PhysParams(a, nu), w0=w0, w0_slope=w0_slope)
        lam_min = -lam_max if backward else 0.0
        ours, theirs = march_outcomes(cfg, lam_max, lam_min)
        assert ours[0] == theirs[0]
        self.assert_same(cfg, ours, theirs, lam_max, lam_min)

    @staticmethod
    def assert_same(cfg, ours, theirs, lam_max, lam_min):
        if ours[0] == "escape":
            assert ours[1] == pytest.approx(theirs[1], rel=1e-12)
        elif ours[0] == "stall":
            # the message prints lam to six digits
            assert ours[1] == pytest.approx(theirs[1], rel=1e-5)
        else:
            table = ours[1]
            for end in (lam_max, lam_min):
                if end == 0.0:
                    continue
                lam = np.linspace(0.0, end, 601)
                sol = scipy_factor_ode(cfg, end, lam_max / 256.0).sol(lam)
                scale = 1e-12 * (1.0 + np.max(np.abs(sol), axis=1))
                assert np.max(np.abs(table(lam) - sol[0])) <= scale[0]
                assert np.max(np.abs(table.slope(lam) - sol[1])) <= scale[1]


class TestFactorODE:
    def test_zero_data_zero_forcing_stays_zero(self):
        cfg = InvariantConfig(betas=(1.0, 0.5, 0.0, 1.5), params=UNIT,
                              w0=0.0, w0_slope=0.0)
        table = integrate_factor_ode(cfg, 2.0, lambda_min=-2.0)
        lams = np.linspace(-2.0, 2.0, 101)
        assert np.max(np.abs(table(lams))) < 1e-12

    def test_matches_fixed_step_rk4_at_two_steps(self):
        betas = (1.0, 1.0, 0.0, -1.0)
        cfg = InvariantConfig(betas=betas, params=UNIT, w0=0.0, w0_slope=1.0)
        table = integrate_factor_ode(cfg, 3.0)
        for nsteps in (3000, 6000):
            oracle = fixed_step_rk4(betas, 1.0, 1.0, 3.0, nsteps, 0.0, 1.0)
            lams = np.linspace(0.0, 3.0, nsteps + 1)
            assert np.max(np.abs(oracle - table(lams))) < 1e-7

    def test_dense_table_satisfies_the_ode(self):
        cfg = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=UNIT,
                              w0=0.0, w0_slope=1.0)
        table = integrate_factor_ode(cfg, 3.0)
        lams = np.linspace(0.05, 2.95, 3001)
        w = table(lams)
        s = table.slope(lams)

        def fd(h):
            return (table.slope(lams + h) - table.slope(lams - h)) / (2.0 * h)

        wpp = (4.0 * fd(5e-4) - fd(1e-3)) / 3.0
        # nu = 1, M = -1, beta1 = 1: residual is W'' + (W')^2 + W
        assert np.max(np.abs(wpp + s * s + w)) < 1e-8

    def test_blow_up_reports_escape(self):
        # drag-free flare with near-zero quadratic braking: exponential climb
        cfg = InvariantConfig(betas=(1.0, -25.0, 0.0, 25.0),
                              params=PhysParams(1e-8, 1.0),
                              w0=1.0, w0_slope=0.0)
        with pytest.raises(BlowUpError) as err:
            integrate_factor_ode(cfg, 5.0)
        assert 3.5 < err.value.escape < 4.2

    def test_log_escape_stalls_with_location(self):
        # backward direction dives like log(lam* - lam); the step underflows
        # long before |W| can reach the blow-up threshold
        cfg = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=UNIT,
                              w0=0.0, w0_slope=1.0)
        with pytest.raises(HornWaveError, match="stalled"):
            integrate_factor_ode(cfg, 1.0, lambda_min=-1.5)

    def test_nan_data_stalls_instead_of_spinning(self):
        # a NaN step compares false against the minimum step, so a stall
        # test written as h < min_step never fires and the reject loop
        # spins; the child process turns such a hang into a failure
        # (the configs reject NaN data, so the march takes it directly)
        script = ("import math\n"
                  "import numpy as np\n"
                  "from hornwave.invariant import _dormand_prince\n"
                  "_dormand_prince(lambda lam, y: np.array((y[1], -y[0])), "
                  "np.array((math.nan, 0.0)), 1.0, 1.0 / 256)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert "HornWaveError: factor ODE stalled" in done.stderr

    def test_even_data_gives_even_solution(self):
        cfg = InvariantConfig(betas=(1.0, 0.0, 1.0, 1.0), params=UNIT,
                              w0=0.3, w0_slope=0.0)
        table = integrate_factor_ode(cfg, 1.5, lambda_min=-1.5)
        lams = np.linspace(0.0, 1.4, 57)
        np.testing.assert_allclose(table(-lams), table(lams), rtol=0, atol=1e-10)

    def test_coverage_outside_span(self):
        cfg = InvariantConfig(betas=(1.0, 0.0, 1.0, 1.0), params=UNIT,
                              w0=0.3, w0_slope=0.0)
        table = integrate_factor_ode(cfg, 2.0)
        with pytest.raises(CoverageError):
            table(2.5)
        with pytest.raises(CoverageError):
            table(-0.1)  # forward-only span does not cover negative lam

    def test_config_data_start_the_march(self):
        cfg = InvariantConfig(betas=(1.0, 0.5, 0.0, 1.0), params=UNIT,
                              w0=0.2, w0_slope=-0.1)
        table = integrate_factor_ode(cfg, 1.0)
        assert abs(table(0.0) - 0.2) < 1e-12
        assert abs(table.slope(0.0) + 0.1) < 1e-12

    def test_integral_route_config_lacks_ode_data(self):
        cfg = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=UNIT, c0=-0.1)
        with pytest.raises(ConfigError):
            integrate_factor_ode(cfg, 1.0)

    def test_span_must_start_at_zero(self):
        cfg = InvariantConfig(betas=(1.0, 0.0, 1.0, 1.0), params=UNIT,
                              w0=0.3, w0_slope=0.0)
        with pytest.raises(ConfigError, match="lambda_max must be positive"):
            integrate_factor_ode(cfg, 0.0)
        with pytest.raises(ConfigError, match="lambda_min cannot be positive"):
            integrate_factor_ode(cfg, 1.0, lambda_min=0.5)


class TestFirstIntegral:
    def test_orbit_turning_points_and_period(self):
        orbit = first_integral_solution(-1.0, 1.0, -0.1)
        assert abs(orbit.w_bottom - (-1.497154173501061)) < 1e-9
        assert abs(orbit.w_top - 0.46016091974426176) < 1e-9
        assert abs(orbit.period - 7.142465714998746) < 1e-9

    def test_orbit_is_bounded_and_periodic(self):
        orbit = first_integral_solution(-1.0, 1.0, -0.1)
        lams = np.linspace(-3.0, 3.0 * orbit.period, 2001)
        vals = orbit(lams)
        assert np.all(vals >= orbit.w_bottom - 1e-12)
        assert np.all(vals <= orbit.w_top + 1e-12)
        np.testing.assert_allclose(orbit(lams + orbit.period), vals,
                                   rtol=0, atol=1e-11)
        assert abs(orbit(orbit.phase) - orbit.w_bottom) < 1e-12
        assert abs(orbit(orbit.phase + 0.5 * orbit.period) - orbit.w_top) < 1e-12

    def test_energy_is_conserved_along_the_orbit(self):
        m, a, c0 = -1.0, 1.0, -0.1
        orbit = first_integral_solution(m, a, c0)
        lams = np.linspace(0.0, 2.0 * orbit.period, 1501)
        w = orbit(lams)
        r = c0 * np.exp(-2.0 * a * w) + (m / (2.0 * a * a)) * (2.0 * a * w - 1.0)
        assert np.max(np.abs(orbit.slope(lams) ** 2 - r)) < 1e-9

    def test_orbit_table_satisfies_factor_ode(self):
        orbit = first_integral_solution(-1.0, 1.0, -0.1)
        lams = np.linspace(0.0, 2.0 * orbit.period, 1501)
        h = 1e-4
        wpp = (orbit(lams + h) - 2.0 * orbit(lams) + orbit(lams - h)) / h ** 2
        # constant-flare branch of the ODE: W'' + (W')^2 + W = 0
        res = wpp + orbit.slope(lams) ** 2 + orbit(lams)
        assert np.max(np.abs(res)) < 1e-6

    @pytest.mark.parametrize("a, nu", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_needs_positive_a_and_nu(self, a, nu):
        with pytest.raises(ConfigError, match="must be positive"):
            first_integral_solution(-1.0, a, -0.1, nu=nu)

    def test_periodicity_needs_negative_m_and_c0(self):
        with pytest.raises(ConfigError):
            first_integral_solution(1.0, 1.0, -0.1)
        with pytest.raises(ConfigError):
            first_integral_solution(-1.0, 1.0, 0.1)

    @pytest.mark.parametrize("m, a, c0, c1, nu", [
        (math.nan, 1.0, -0.1, 0.0, 1.0), (-1.0, math.nan, -0.1, 0.0, 1.0),
        (-1.0, math.inf, -0.1, 0.0, 1.0), (-1.0, 1.0, math.nan, 0.0, 1.0),
        (-1.0, 1.0, -0.1, math.nan, 1.0), (-1.0, 1.0, -0.1, 0.0, math.nan)])
    def test_rejects_non_finite_inputs(self, m, a, c0, c1, nu):
        # NaN passes the sign checks: it raised RangeOverflowError, or for
        # c1 returned an orbit that is NaN everywhere
        with pytest.raises(ConfigError, match="must be finite"):
            first_integral_solution(m, a, c0, c1=c1, nu=nu)

    def test_overdeep_well_has_no_orbit(self):
        # c0 so negative that the radicand peak never rises above zero
        with pytest.raises(ConfigError, match=r"gamma .* = -2 .*\(-1/2, 0\)"):
            first_integral_solution(-1.0, 1.0, -2.0)

    @pytest.mark.parametrize("m, a, c0, nu", [
        pytest.param(-1.0, 1e200, -0.1, 1.0, id="1e+200"),
        pytest.param(-1.0, 1e-200, -0.1, 1.0, id="1e-200"),
        pytest.param(-1.0, 1.0, -1e200, 1e307, id="bottom"),
        pytest.param(-1e-307, 1e160, -1.7e-320, 1.7e308, id="period"),
    ])
    def test_turning_points_past_the_double_range(self, m, a, c0, nu):
        # gamma = a^2 c0/(nu |M|) overflows or underflows to 0, or gamma is
        # in range and the rescaled bottom (nu/a) w_bottom or period is not:
        # exit 3, with no RuntimeWarning on the way
        with pytest.raises(RangeOverflowError, match="double range"):
            first_integral_solution(m, a, c0, nu=nu)

    @pytest.mark.parametrize("m, a, c0, nu, gamma", [
        pytest.param(-1.0, 1e100, -0.1, 1e300, -1e-101, id="a1e+100-nu1e+300"),
        pytest.param(-1.0, 1e-150, -0.1, 1e-300, -0.1, id="a1e-150-nu1e-300"),
        pytest.param(-1e300, 1.0, -0.1, 1e-300, -0.1, id="M-1e+300-nu1e-300"),
        pytest.param(-1e300, 1e-50, -0.1, 1e-100, -1e-301,
                     id="M-1e+300-a1e-50-nu1e-100"),
        pytest.param(-1e300, 1.0, -0.1, 1.0, -1e-301, id="M-1e+300"),
    ])
    def test_extreme_scales_still_build(self, m, a, c0, nu, gamma):
        # a^2, M / 2a^2 or nu |M| leaves the double range, but gamma and the
        # scales nu/a and sqrt(nu/|M|) do not, so the orbit builds
        orbit = build_quietly(m, a, c0, nu)
        reduced = build_quietly(-1.0, 1.0, gamma, 1.0)
        assert energy_defect(orbit, m, a, c0, nu) \
            <= 10.0 * energy_defect(reduced, -1.0, 1.0, gamma, 1.0)

    @pytest.mark.parametrize("nu", [1e-10, 1e-14, 1e-20])
    def test_small_orbits_keep_their_turning_points(self, nu):
        # c0 = -0.1 nu holds gamma = -0.1: the nu = 1 orbit scaled by nu
        unit = build_quietly(-1.0, 1.0, -0.1, 1.0)
        orbit = build_quietly(-1.0, 1.0, -0.1 * nu, nu)
        assert energy_defect(orbit, -1.0, 1.0, -0.1 * nu, nu) \
            <= 10.0 * energy_defect(unit, -1.0, 1.0, -0.1, 1.0)
        assert orbit.w_bottom == pytest.approx(nu * unit.w_bottom, rel=1e-14)
        assert orbit.w_top == pytest.approx(nu * unit.w_top, rel=1e-14)

    @pytest.mark.parametrize("a, nu", [
        pytest.param(1.0, 1.0, id="unit"),
        pytest.param(2.0 ** -20, 2.0 ** -40, id="scaled")])
    def test_turning_points_match_lambert_w(self, a, nu):
        # gamma = a^2 c0/(nu |M|) = c0 exactly on both (the scales are powers
        # of two), and the second orbit is 2^-20 high
        gammas = np.concatenate((-np.logspace(-300.0, -1.0, 61),
                                 np.linspace(-0.49, -0.11, 20)))
        for gamma in gammas:
            orbit = build_quietly(-1.0, a, gamma, nu)
            for k, got in ((-1, orbit.w_bottom), (0, orbit.w_top)):
                want = 0.5 + 0.5 * special.lambertw(2.0 * gamma / math.e, k).real
                assert got / (nu / a) == pytest.approx(want, rel=1e-14, abs=0.0)

    @settings(max_examples=60)
    @given(log_gamma=st.floats(-12.0, math.log10(0.49)),
           log_a=st.floats(-100.0, 100.0), log_nu=st.floats(-100.0, 100.0),
           log_m=st.floats(-100.0, 100.0))
    def test_every_orbit_is_the_gamma_orbit_rescaled(self, log_gamma, log_a,
                                                     log_nu, log_m):
        # the orbit at (M, a, c0, nu) is (nu/a) w_gamma(lam / sqrt(nu/|M|))
        gamma, a, nu, m = -10.0 ** log_gamma, 10.0 ** log_a, \
            10.0 ** log_nu, -(10.0 ** log_m)
        # R's linear coefficient |M| nu / 2a^2 = c0 / 2 gamma must be a double
        slope_term = -m * (nu / a) / (2.0 * a)
        assume(1e-290 < slope_term < 1e290)
        c0 = 2.0 * gamma * slope_term
        orbit = build_quietly(m, a, c0, nu)
        assert energy_defect(orbit, m, a, c0, nu) <= 1e-9
        reduced = build_quietly(-1.0, 1.0, gamma, 1.0)
        lam_scale = math.sqrt(nu) / math.sqrt(-m)
        assert orbit.period / lam_scale \
            == pytest.approx(reduced.period, rel=1e-12)
        s = np.linspace(0.0, 2.0 * reduced.period, 401)
        np.testing.assert_allclose(orbit(s * lam_scale) / (nu / a), reduced(s),
                                   rtol=0.0, atol=1e-12 * -reduced.w_bottom)

    def test_viscous_scaling_of_the_radicand(self):
        m, a, c0, nu = -1.0, 1.0, -0.05, 0.5
        orbit = first_integral_solution(m, a, c0, nu=nu)
        assert abs(orbit.w_bottom - (-0.7485770867505305)) < 1e-6
        assert abs(orbit.w_top - 0.23008045987213088) < 1e-6
        lams = np.linspace(0.0, orbit.period, 801)
        w = orbit(lams)
        r = c0 * np.exp(-2.0 * a * w / nu) + (m / (2.0 * a * a)) * (2.0 * a * w - nu)
        assert np.max(np.abs(orbit.slope(lams) ** 2 - r)) < 1e-9


class TestNestedIntegral:
    def test_reduction_to_single_quadratures(self):
        # integration by parts collapses the double integral:
        # M F(z) + exp(-d(z)) * E(z) = z  with  E = integral of exp(d)
        for betas, zmax in [((1.0, 0.0, 1.0, 1.0), 1.3),
                            ((1.0, 0.4, 0.5, 2.0), 0.8)]:
            m = betas[3]
            for z in (0.2, 0.6 * zmax, zmax):
                f = nested_area_integral(betas, z)
                e = integrate.quad(lambda y: math.exp(d_of_zeta(betas, y)),
                                   0.0, z, epsabs=0.0, epsrel=1e-12)[0]
                assert abs(m * f + math.exp(-d_of_zeta(betas, z)) * e - z) < 1e-10

    @pytest.mark.parametrize("betas", [(1.0, 0.0, 1.0, 1.0),     # disc < 0
                                       (1.0, 3.0, 1.0, -0.5)])   # disc > 0
    @pytest.mark.parametrize("zeta", [0.01, 0.3, 2.0])
    def test_matches_the_nested_double_integral(self, betas, zeta):
        # the definition itself: an inner quadrature of exp(d) at every
        # node of the outer one, each with scipy directly
        def inner(z):
            return integrate.quad(lambda y: math.exp(d_of_zeta(betas, y)),
                                  0.0, z, epsabs=0.0, epsrel=1e-13)[0]

        def outer(z):
            return math.exp(-d_of_zeta(betas, z)) * inner(z) \
                / classifying_b(betas, z)

        ref = integrate.quad(outer, 0.0, zeta, epsabs=0.0, epsrel=1e-13)[0]
        assert abs(nested_area_integral(betas, zeta) - ref) <= 1e-10 * ref

    def test_vanishes_at_the_throat(self):
        assert nested_area_integral((1.0, 0.0, 1.0, 1.0), 0.0) == 0.0

    def test_negative_zeta_rejected(self):
        with pytest.raises(DomainError):
            nested_area_integral((1.0, 0.0, 1.0, 1.0), -0.5)


class TestAssembly:
    def test_beta2_zero_keeps_only_the_profile_term(self):
        betas = (1.0, 0.3, 0.0, -0.4)
        cfg = InvariantConfig(betas=betas, params=UNIT, w0=0.15, w0_slope=0.1)
        table = integrate_factor_ode(cfg, 1.0, lambda_min=-1.0)
        grid = TauGrid.windowed(-0.8, 0.8, 33)
        z = 0.6
        q = assemble_invariant_q(cfg, z, grid, table)
        lam, d = similarity_vars(betas, z, grid.tau)
        np.testing.assert_allclose(q, math.exp(d) * table(lam), rtol=0, atol=1e-14)

    def test_throat_returns_the_shape_itself(self):
        betas = (2.0, 0.0, 1.0, 1.0)
        cfg = InvariantConfig(betas=betas, params=UNIT, w0=0.3, w0_slope=0.0)
        table = integrate_factor_ode(cfg, 1.0, lambda_min=-1.0)
        grid = TauGrid.windowed(-1.0, 1.0, 65)
        q = assemble_invariant_q(cfg, 0.0, grid, table)
        np.testing.assert_allclose(q, table(grid.tau / math.sqrt(2.0)),
                                   rtol=0, atol=1e-14)

    def test_field_depends_only_on_similarity_pair(self):
        # beta2 = 0: two stations tuned to the same lam must agree after
        # removing the exp(d) gain
        betas = (1.0, 0.3, 0.0, -0.4)
        cfg = InvariantConfig(betas=betas, params=UNIT, w0=0.15, w0_slope=0.1)
        table = integrate_factor_ode(cfg, 0.6, lambda_min=-0.6)
        lam_target = 0.3
        vals = []
        for z in (0.2, 0.6):
            d = d_of_zeta(betas, z)
            b = betas[0] + betas[1] * z
            tau_c = lam_target * math.sqrt(b) * math.exp(0.5 * d)
            grid = TauGrid.windowed(tau_c - 0.01, tau_c + 0.01, 5)
            q = assemble_invariant_q(cfg, z, grid, table)
            vals.append(q[2] * math.exp(-d))
        assert abs(vals[0] - vals[1]) < 1e-10

    def test_gain_matches_profile_module_mu(self):
        betas = (1.0, 0.0, 1.0, 1.0)
        profile = BetaFamilyProfile(*betas)
        nu = 0.7
        for z in (0.2, 0.9, 1.6):
            _, d = similarity_vars(betas, z, 0.0)
            via_area = profile.mu(nu, profile.x_of_zeta(z))
            assert abs(nu * math.exp(d) - via_area) < 1e-8

    def test_full_field_solves_the_equation_arctan_family(self):
        # betas (1, 0, 1, 1), a = 1: ODE shape plus correction bracket
        betas = (1.0, 0.0, 1.0, 1.0)
        cfg = InvariantConfig(betas=betas, params=UNIT, w0=0.3, w0_slope=0.0)
        table = integrate_factor_ode(cfg, 0.9, lambda_min=-0.9)
        grid = TauGrid.windowed(-1.0, 1.0, 256)
        zetas = np.linspace(0.3, 0.8, 64)
        fields = [assemble_invariant_q(cfg, z, grid, table) for z in zetas]
        coarse = residual(fields, zetas, 1.0, np.exp(d_of_zeta(betas, zetas)),
                          grid)
        assert coarse < 1e-4

        grid2 = TauGrid.windowed(-1.0, 1.0, 512)
        zetas2 = np.linspace(0.3, 0.8, 128)
        fields2 = [assemble_invariant_q(cfg, z, grid2, table) for z in zetas2]
        fine = residual(fields2, zetas2, 1.0,
                        np.exp(d_of_zeta(betas, zetas2)), grid2)
        assert coarse / fine > 3.0  # second-order defect decay

    def test_full_field_solves_the_equation_orbit_branch(self):
        # constant-flare branch with the quadrature orbit as the shape
        cfg = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=UNIT, c0=-0.1)
        orbit = first_integral_solution(-1.0, 1.0, -0.1)
        grid = TauGrid(n=256, period=orbit.period)
        # the exponential duct of flare -1: mu/nu = 1/(1 + zeta)
        zetas = np.linspace(0.0, 0.4, 64)
        fields = [assemble_invariant_q(cfg, z, grid, orbit) for z in zetas]
        coarse = residual(fields, zetas, 1.0, 1.0 / (1.0 + zetas), grid)
        assert coarse < 1e-4

        zetas2 = np.linspace(0.0, 0.4, 128)
        fields2 = [assemble_invariant_q(cfg, z, grid, orbit) for z in zetas2]
        fine = residual(fields2, zetas2, 1.0, 1.0 / (1.0 + zetas2), grid)
        assert coarse / fine > 3.0

    def test_viscosity_placement_in_the_assembly(self):
        # nu != 1 exercises every restored factor at once; a wrong placement
        # would leave an O(1) defect instead of finite-difference noise
        nu = 0.5
        cfg = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0),
                              params=PhysParams(1.0, nu), c0=-0.05)
        orbit = first_integral_solution(-1.0, 1.0, -0.05, nu=nu)
        grid = TauGrid(n=256, period=orbit.period)
        zetas = np.linspace(0.0, 0.2, 65)
        fields = [assemble_invariant_q(cfg, z, grid, orbit) for z in zetas]
        assert residual(fields, zetas, 1.0, nu / (1.0 + zetas), grid) < 2e-5

    @pytest.mark.parametrize("route", ["ode", "orbit"])
    def test_stations_in_one_call_match_one_at_a_time(self, route):
        if route == "ode":   # beta2 != 0 adds the correction bracket
            cfg = InvariantConfig(betas=(1.0, 0.0, 1.0, 1.0), params=UNIT,
                                  w0=0.3, w0_slope=0.0)
            table = integrate_factor_ode(cfg, 0.9, lambda_min=-0.9)
            grid = TauGrid.windowed(-1.0, 1.0, 128)
            zetas = np.linspace(0.3, 0.8, 16)
        else:
            cfg = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=UNIT,
                                  c0=-0.1)
            table = first_integral_solution(-1.0, 1.0, -0.1)
            grid = TauGrid(n=128, period=table.period)
            zetas = np.linspace(0.0, 0.4, 16)
        calls = []

        def counted(lam):
            calls.append(np.shape(lam))
            return table(lam)

        batch = assemble_invariant_q(cfg, zetas, grid, counted)
        assert calls == [(zetas.size, grid.n)]
        assert batch.shape == (zetas.size, grid.n)
        scale = np.max(np.abs(batch))
        for z, row in zip(zetas, batch):
            one = assemble_invariant_q(cfg, z, grid, table)
            assert one.shape == (grid.n,)
            assert np.max(np.abs(row - one)) <= 1e-15 * scale

    def test_coverage_error_when_window_exceeds_table(self):
        betas = (1.0, 0.0, 1.0, 1.0)
        cfg = InvariantConfig(betas=betas, params=UNIT, w0=0.3, w0_slope=0.0)
        table = integrate_factor_ode(cfg, 0.5, lambda_min=-0.5)
        grid = TauGrid.windowed(-2.0, 2.0, 33)
        with pytest.raises(CoverageError):
            assemble_invariant_q(cfg, 0.1, grid, table)
