"""Tests for the marching solver and the equation-defect estimator."""

import math

import numpy as np
import pytest

from hornwave import solver
from hornwave.errors import ConfigError, ResolutionError, SpacingError
from hornwave.grid import TauGrid
from hornwave.kernel import InitialCondition
from hornwave.profiles import (BetaFamilyProfile, ConstantProfile,
                               ExponentialProfile, TabulatedProfile)
from hornwave.rg import PhysParams, zero_order
from hornwave.solver import (
    _A,
    _C,
    _ERR,
    _EXP_FLOOR,
    _FAC_MAX,
    _FAC_MIN,
    _MAX_STEPS,
    _PI_ALPHA,
    _PI_BETA,
    _SAFETY,
    SolverConfig,
    SolverResult,
    residual,
    solve,
    u_from_q,
)

COS = InitialCondition.harmonic()
CHANNEL = ConstantProfile()
FLARE = ExponentialProfile(-0.1)
GRID = TauGrid.periodic_default(256)


def _rippled_duct(count=65, x_stop=4.0):
    """A tapering table duct with a smooth ripple and S(0) = 1."""
    x = np.linspace(0.0, x_stop, count)
    shift = 1.0
    log_area = -0.2 * x + 0.03 * (np.sin(2.5 * x + shift) - math.sin(shift))
    return TabulatedProfile(x, np.exp(log_area))


class _RecordingDuct:
    """Passes a profile's maps through and keeps each step's stage x."""

    def __init__(self, profile):
        self.profile = profile
        self.stage_x = []

    def zeta_of_x(self, x):
        return self.profile.zeta_of_x(x)

    def x_of_zeta(self, zeta):
        xs = self.profile.x_of_zeta(zeta)
        self.stage_x.append(np.array(xs))
        return xs


def _reference_solve(ic, params, profile, grid, config):
    """The march step as one full-width decay per stage pair and use.

    ``solve`` must reproduce it bit for bit: same tableau, step control
    and order of every floating-point addition.
    """
    kap = grid.wavenumbers()
    kap2 = kap * kap
    mask = np.ones(kap.size)
    mask[kap.size - (grid.n // 2 - grid.n // 3):] = 0.0   # 2/3-rule cutoff

    a = params.a
    if config.form == "q":
        def nonlinear(spec):
            grad = np.fft.irfft(1j * kap * spec * mask, n=grid.n)
            return np.fft.rfft(a * grad * grad) * mask
    else:
        def nonlinear(spec):
            vals = np.fft.irfft(spec * mask, n=grid.n)
            grad = np.fft.irfft(1j * kap * spec * mask, n=grid.n)
            return np.fft.rfft(a * vals * grad) * mask

    w = ic.sample(grid)
    state = np.fft.rfft(w if config.form == "q" else u_from_q(w, grid))

    x_st = config.stations
    z_st = [float(profile.zeta_of_x(x)) for x in x_st]
    result_fields = []

    zeta = 0.0
    nxt = 0
    if z_st[0] == 0.0:
        result_fields.append(np.fft.irfft(state, n=grid.n))
        nxt = 1

    span = z_st[-1] if z_st[-1] > 0.0 else 1.0
    h = min(1e-4 * max(span, 1.0), span / 100.0)
    h_floor = max(1e-13, 1e-11 * span)
    err_prev = 1.0
    n_tail = nonlinear(state)     # FSAL seed
    steps = rejected = 0

    while nxt < len(z_st):
        if steps >= _MAX_STEPS:
            raise ResolutionError(
                f"step budget {_MAX_STEPS} exhausted at zeta = {zeta:g}",
                suggested_n=2 * grid.n)
        hitting = z_st[nxt] - zeta <= h
        if hitting:
            h = z_st[nxt] - zeta

        # physical x at the stage points; differences feed the decay factors
        zs = zeta + _C * h
        zs[-1] = zeta + h
        xs = np.asarray(profile.x_of_zeta(zs), dtype=float)

        def decay(j, i):
            return np.exp(-params.nu * kap2 * (xs[i] - xs[j]))

        n_stage = [n_tail]
        for i in range(1, 7):
            acc = decay(0, i) * state
            for j, aij in enumerate(_A[i]):
                if aij != 0.0:
                    acc = acc + (h * aij) * decay(j, i) * n_stage[j]
            n_stage.append(nonlinear(acc))
            if i == 6:
                proposal = acc

        err_spec = h * sum(_ERR[j] * decay(j, 6) * n_stage[j] for j in range(7))
        err = np.max(np.abs(np.fft.irfft(err_spec, n=grid.n)))
        scale = config.tol * (1.0 + np.max(np.abs(np.fft.irfft(proposal, n=grid.n))))
        ratio = err / scale
        steps += 1

        if ratio <= 1.0:
            zeta += h
            state = proposal
            n_tail = n_stage[6]
            if hitting:
                result_fields.append(np.fft.irfft(state, n=grid.n))
                nxt += 1
            fac = _SAFETY * max(ratio, 1e-10) ** -_PI_ALPHA * err_prev ** _PI_BETA
            err_prev = max(ratio, 1e-10)
        else:
            rejected += 1
            fac = _SAFETY * ratio ** -_PI_ALPHA
        h *= min(_FAC_MAX, max(_FAC_MIN, fac))
        if h < h_floor:
            raise ResolutionError(
                f"step size collapsed to {h:.3e} at zeta = {zeta:g}; "
                "the solution is too sharp for this grid",
                suggested_n=2 * grid.n)

    return SolverResult(grid=grid, form=config.form,
                        x_stations=tuple(x_st), zeta_stations=tuple(z_st),
                        fields=result_fields, steps=steps, rejected=rejected)


class TestConfig:
    def test_rejects_bad_form(self):
        with pytest.raises(ConfigError):
            SolverConfig(form="p")

    def test_rejects_decreasing_stations(self):
        with pytest.raises(ConfigError):
            SolverConfig(stations=(0.5, 0.2))

    def test_rejects_negative_station(self):
        with pytest.raises(ConfigError):
            SolverConfig(stations=(-1.0, 1.0))

    @pytest.mark.parametrize("stations", [(math.nan,), (math.inf,),
                                          (1.0, math.nan)])
    def test_rejects_non_finite_stations(self, stations):
        # NaN passes every ordering check, and the duct map then raises a
        # DomainError, the wrong class
        with pytest.raises(ConfigError, match="stations must be finite"):
            SolverConfig(stations=stations)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        # a NaN tolerance rejects every step until the step collapses, a
        # wrong diagnosis, and an infinite one accepts every step
        with pytest.raises(ConfigError, match="positive and finite"):
            SolverConfig(tol=tol)


class TestTableau:
    """The one Dormand-Prince 5(4) tableau: both marches read it, so a
    wrong coefficient must fail here on its own."""

    def test_rows_are_strictly_lower_and_sum_to_the_nodes(self):
        np.testing.assert_array_equal(_A, np.tril(_A, -1))
        assert np.max(np.abs(_A.sum(axis=1) - _C)) <= 1e-15

    def test_fifth_order_weights_meet_the_order_conditions(self):
        b, c = _A[6], _C
        for k in range(5):
            assert abs(b @ c ** k - 1 / (k + 1)) <= 1e-15
        for got, want in ((b @ _A @ c, 1 / 6), (b @ (c * (_A @ c)), 1 / 8),
                          (b @ _A @ c ** 2, 1 / 12),
                          (b @ _A @ _A @ c, 1 / 24)):
            assert abs(got - want) <= 1e-15

    def test_error_weights_annihilate_cubics_only(self):
        for k in range(4):
            assert abs(_ERR @ _C ** k) <= 1e-15
        assert abs(_ERR @ _C ** 4) > 1e-4


class TestMarch:
    def test_pure_heat_decay(self):
        r = solve(COS, PhysParams(0.0, 1.0), CHANNEL, GRID,
                  SolverConfig(stations=(1.0,)))
        assert abs(r.fields[0][0] - math.exp(-1.0)) <= 1e-7

    def test_cole_hopf_exact_channel(self):
        # the zero-order field is exact when mu is constant, so the solver
        # must land on it to within its own accuracy
        params = PhysParams(1.0, 1.0)
        r = solve(COS, params, CHANNEL, GRID, SolverConfig(stations=(0.5, 2.0)))
        for x, f in zip(r.x_stations, r.fields):
            q0 = zero_order(params, CHANNEL, COS, x, r.grid)
            assert np.max(np.abs(f - q0)) <= 1e-4

    def test_station_zero_returns_signal(self):
        r = solve(COS, PhysParams(1.0, 1.0), FLARE, GRID,
                  SolverConfig(stations=(0.0, 0.5)))
        assert np.max(np.abs(r.fields[0] - np.cos(r.grid.tau))) <= 1e-14

    def test_mean_conservation_u_form(self):
        r = solve(COS, PhysParams(1.0, 1.0), CHANNEL, GRID,
                  SolverConfig(stations=(0.5, 1.0, 2.0, 4.0), form="u"))
        u0 = u_from_q(np.cos(r.grid.tau), r.grid)
        for f in r.fields:
            assert abs(np.mean(f) - np.mean(u0)) <= 1e-10

    def test_spectral_convergence(self):
        params = PhysParams(1.0, 1.0)
        coarse, fine = (solve(COS, params, FLARE, TauGrid.periodic_default(n),
                              SolverConfig(stations=(2.0,)))
                        for n in (128, 256))
        assert np.max(np.abs(coarse.fields[0] - fine.fields[0][::2])) <= 1e-8

    def test_forms_agree_through_derivative(self):
        params = PhysParams(2.0, 1.0)
        rq = solve(COS, params, FLARE, GRID, SolverConfig(stations=(1.0,)))
        ru = solve(COS, params, FLARE, GRID, SolverConfig(stations=(1.0,), form="u"))
        assert np.max(np.abs(u_from_q(rq.fields[0], rq.grid) - ru.fields[0])) <= 1e-7

    def test_step_budget_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_STEPS", 5)
        with pytest.raises(ResolutionError, match="step budget 5 exhausted") as err:
            solve(COS, PhysParams(1.0, 1.0), FLARE, GRID,
                  SolverConfig(stations=(2.0,)))
        assert err.value.suggested_n == 512

    def test_step_collapse_error(self):
        # no step meets a tolerance of 1e-300, so the step shrinks below
        # its floor at zeta = 0 and a doubled grid is suggested
        with pytest.raises(ResolutionError,
                           match="step size collapsed") as err:
            solve(COS, PhysParams(1.0, 1.0), FLARE,
                  TauGrid.periodic_default(64),
                  SolverConfig(tol=1e-300, stations=(1.0,)))
        assert err.value.suggested_n == 128

    @pytest.mark.parametrize("n, a, x_stop, form", [
        *((n, a, x, form) for form in "qu" for n, a, x in (
            (64, 10.0, 2.0), (256, 10.0, 0.5), (1024, 1.0, 2.0),
            (4096, 1.0, 2.0), (64, 50.0, 1.0))),
        (4096, 10.0, 0.5, "q"), (1024, 50.0, 0.1, "q")])
    def test_matches_reference_march(self, n, a, x_stop, form):
        # tol 1e-6 keeps the reference short; at a = 1 its steps are long
        # enough for stage-pair decays to underflow on most of the band
        # from n = 1024
        grid = TauGrid.periodic_default(n)
        config = SolverConfig(tol=1e-6, stations=(0.0, x_stop / 2, x_stop),
                              form=form)
        for profile in (CHANNEL, FLARE):
            args = (COS, PhysParams(a, 1.0), profile, grid, config)
            got, want = solve(*args), _reference_solve(*args)
            assert got.steps == want.steps
            assert got.rejected == want.rejected
            assert len(got.fields) == len(want.fields) == 3
            for f_got, f_want in zip(got.fields, want.fields):
                assert f_got.tobytes() == f_want.tobytes()

    @pytest.mark.parametrize("n, a, x_stop, form", [
        (64, 10.0, 2.0, "q"), (256, 10.0, 0.5, "q"), (1024, 1.0, 2.0, "q"),
        (64, 10.0, 2.0, "u"), (1024, 1.0, 2.0, "u"), (64, 50.0, 1.0, "q")])
    @pytest.mark.parametrize("duct", ["table", "beta"])
    def test_matches_reference_march_on_table_ducts(self, n, a, x_stop,
                                                    form, duct):
        # ducts whose coordinate maps are tables, not formulas; a = 50
        # rejects a step
        profile = _RecordingDuct(
            _rippled_duct() if duct == "table"
            else BetaFamilyProfile(1.0, 0.0, 0.05, -0.1))
        grid = TauGrid.periodic_default(n)
        config = SolverConfig(tol=1e-6, stations=(0.0, x_stop / 2, x_stop),
                              form=form)
        args = (COS, PhysParams(a, 1.0), profile, grid, config)
        got = solve(*args)
        stage_x = list(profile.stage_x)
        want = _reference_solve(*args)
        assert (got.steps, got.rejected) == (want.steps, want.rejected)
        assert len(got.fields) == len(want.fields) == 3
        for f_got, f_want in zip(got.fields, want.fields):
            assert f_got.tobytes() == f_want.tobytes()
        # a = 1, n = 1024: short early steps take the plain exp, and long
        # later ones the masked exp, whose decays underflow at the top
        # of the band
        smallest = [-(grid.n // 2) ** 2 * (xs[-1] - xs[0]) for xs in stage_x]
        underflows = [e < _EXP_FLOOR for e in smallest]
        assert len(underflows) == got.steps
        if n == 1024:
            assert 0 < sum(underflows) < got.steps

    def test_station_fields_share_no_memory(self):
        # the march writes every step into the same workspaces, so a
        # station's field must be a copy of them
        r = solve(COS, PhysParams(1.0, 1.0), FLARE,
                  TauGrid.periodic_default(64),
                  SolverConfig(stations=(0.0, 0.1, 0.2, 0.3)))
        for i, f in enumerate(r.fields):
            assert all(not np.shares_memory(f, g) for g in r.fields[i + 1:])
        assert not np.array_equal(r.fields[2], r.fields[3])

    @pytest.mark.parametrize("form, one_off", [("q", 2), ("u", 4)])
    def test_step_loop_bypasses_the_fft_wrapper(self, monkeypatch, form,
                                                one_off):
        # the step's transforms call np.fft's gufuncs: only the signal's
        # rfft (after u_from_q's two transforms in the u-form) and the
        # x = 0 station go through np.fft, however many steps the march
        # takes, and the fields are those of the wrapper's transforms
        pocketfft = np.fft._pocketfft_umath
        assert pocketfft.rfft_n_even.signature == "(n),()->(m)"
        assert pocketfft.irfft.signature == "(m),()->(n)"
        args = (COS, PhysParams(5.0, 1.0), FLARE, GRID,
                SolverConfig(stations=(0.0, 1.0, 2.0), form=form))
        want = _reference_solve(*args)
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*a, _transform=getattr(np.fft, name), **kw):
                calls.append(_transform.__name__)
                return _transform(*a, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        got = solve(*args)
        assert got.steps == want.steps > 100
        assert len(calls) <= one_off, calls
        assert len(got.fields) == len(want.fields) == 3
        for f_got, f_want in zip(got.fields, want.fields):
            assert f_got.tobytes() == f_want.tobytes()

    def test_windowed_grid_rejected(self):
        with pytest.raises(ConfigError, match="periodic grids only"):
            solve(COS, PhysParams(1.0, 1.0), FLARE,
                  TauGrid.windowed(-math.pi, math.pi, 256),
                  SolverConfig(stations=(1.0,)))


class TestDerivativeHelpers:
    def test_u_from_q(self):
        g = TauGrid.periodic_default(64)
        out = u_from_q(np.cos(g.tau), g)
        assert np.max(np.abs(out + 2.0 * np.sin(g.tau))) <= 1e-13

    def test_spectral_derivative(self):
        # u_from_q is twice the spectral tau-derivative
        g = TauGrid.periodic_default(64)
        out = u_from_q(np.sin(3 * g.tau), g)
        assert np.max(np.abs(out - 6.0 * np.cos(3 * g.tau))) <= 1e-12


class TestResidual:
    def test_self_consistency_on_solver_output(self):
        # spacing chosen so the estimator's own dz^2 truncation stays below
        # ten times the marching tolerance
        params = PhysParams(1.0, 1.0)
        dz = 2e-4
        zline = np.arange(1.0 - 2 * dz, 1.0 + 2.5 * dz, dz)
        xs = tuple(float(FLARE.x_of_zeta(z)) for z in zline)
        r = solve(COS, params, FLARE, GRID, SolverConfig(tol=1e-8, stations=xs))
        mu = FLARE.mu(params.nu, FLARE.x_of_zeta(zline))
        assert residual(r.fields, zline, params.a, mu, r.grid) <= 1e-7

    def test_scalar_and_station_mu_agree(self):
        # mu is one value for all stations or one per station
        g = TauGrid.periodic_default(64)
        zline = np.array([0.999, 1.0, 1.001])
        fields = [np.exp(-0.5 * z) * np.cos(g.tau) for z in zline]
        one = residual(fields, zline, 0.0, 0.5, g)
        assert one <= 1e-6
        assert residual(fields, zline, 0.0, np.full(3, 0.5), g) == one
        # mu enters at the interior station alone
        assert residual(fields, zline, 0.0, [9.0, 0.5, 9.0], g) == one
        assert residual(fields, zline, 0.0, 0.6, g) > 1e-2

    @pytest.mark.parametrize("mu", [np.ones(2), np.ones(4), np.ones((3, 2))],
                             ids=["short", "long", "two-d"])
    def test_mu_that_does_not_fit_the_stations_rejected(self, mu):
        g = TauGrid.periodic_default(32)
        with pytest.raises(ConfigError, match="mu"):
            residual([np.zeros(g.n)] * 3, [0.0, 0.1, 0.2], 1.0, mu, g)

    def test_constant_field_is_exact(self):
        g = TauGrid.periodic_default(32)
        fields = [np.full(g.n, 0.7) for _ in range(3)]
        out = residual(fields, [0.0, 0.1, 0.2], 0.0, 1.0, g)
        assert out == 0.0

    def test_heat_solution_on_windowed_grid(self):
        # q = e^{-z} cos tau solves the a=0 constant-channel equation; the
        # windowed estimator should converge at second order in dtau
        def defect(n):
            g = TauGrid.windowed(0.0, math.pi / 2.0, n)
            zline = np.array([0.999, 1.0, 1.001])
            fields = [np.exp(-z) * np.cos(g.tau) for z in zline]
            return residual(fields, zline, 0.0, 1.0, g)

        coarse, fine = defect(65), defect(129)
        assert coarse <= 1e-4
        assert coarse / fine == pytest.approx(4.0, rel=0.2)

    def test_u_form_defect(self):
        g = TauGrid.periodic_default(64)
        zline = np.array([0.999, 1.0, 1.001])
        fields = [np.exp(-z) * np.cos(g.tau) for z in zline]
        out = residual(fields, zline, 0.0, 1.0, g, form="u")
        assert out <= 1e-6

    def test_non_uniform_spacing_rejected(self):
        g = TauGrid.periodic_default(32)
        fields = [np.zeros(g.n)] * 3
        with pytest.raises(SpacingError):
            residual(fields, [0.0, 0.1, 0.25], 1.0, 1.0, g)

    def test_zero_step_rejected(self):
        g = TauGrid.periodic_default(32)
        with pytest.raises(SpacingError):
            residual([np.zeros(g.n)] * 3, [0.2, 0.2, 0.2], 1.0, 1.0, g)

    def test_fields_of_the_wrong_shape_rejected(self):
        with pytest.raises(ConfigError, match="expected 3 fields of 64"):
            residual(np.zeros((3, 32)), [0.0, 0.1, 0.2], 1.0, 1.0,
                     TauGrid.periodic_default(64))

    def test_unknown_form_rejected_before_any_transform(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transform before the form check")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        with pytest.raises(ConfigError, match="form must be 'q' or 'u'"):
            residual(np.zeros((3, 64)), [0.0, 0.1, 0.2], 1.0, 1.0,
                     TauGrid.periodic_default(64), form="p")

    def test_too_few_stations_rejected(self):
        g = TauGrid.periodic_default(32)
        with pytest.raises(SpacingError):
            residual([np.zeros(g.n)] * 2, [0.0, 0.1], 1.0, 1.0, g)
