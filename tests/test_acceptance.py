"""Acceptance gate: ten criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion also fails the suite on its own if its bound is violated.
"""

import math
import time

import numpy as np
import scipy.special

from hornwave.cli import compare, fig_config, run
from hornwave.grid import TauGrid
from hornwave.invariant import (InvariantConfig, assemble_invariant_q,
                                first_integral_solution, integrate_factor_ode)
from hornwave.kernel import InitialCondition, kernel_quadrature, kernel_series
from hornwave.profiles import ConstantProfile, ExponentialProfile, d_of_zeta
from hornwave.rg import PhysParams, evaluate_station
from hornwave.solver import SolverConfig, residual, solve


def report(number, name, ok, detail):
    line = f"criterion {number} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_c1_boundary_recovery():
    t0 = time.perf_counter()
    grid = TauGrid.periodic_default(128)
    params = PhysParams(1.0, 1.0)
    duct = ExponentialProfile(-0.1)
    signals = [InitialCondition.harmonic()]
    rng = np.random.default_rng(20260823)
    for _ in range(3):
        signals.append(InitialCondition.tabulated(
            0.5 * rng.standard_normal(grid.n), grid))
    worst = 0.0
    for ic in signals:
        sol = evaluate_station(params, duct, ic, 0.0, grid,
                               fields=("q0", "q1"))
        w = ic.sample(grid)
        worst = max(worst, float(np.max(np.abs(sol.q0 - w))),
                    float(np.max(np.abs(sol.q1 - w))))
    elapsed = time.perf_counter() - t0
    report(1, "boundary recovery", worst <= 1e-10 and elapsed < 1.0,
           f"max defect {worst:.2e} over 4 signals, {elapsed:.2f}s")


def test_c2_cole_hopf_exactness():
    params = PhysParams(1.0, 1.0)
    duct = ConstantProfile()
    ic = InitialCondition.harmonic()
    grid = TauGrid.periodic_default(256)
    stations = (0.2, 0.5, 1.0, 2.0)
    marched = solve(ic, params, duct, grid,
                    SolverConfig(tol=1e-10, stations=stations))
    worst = 0.0
    oracle_gap = 0.0
    ks = np.arange(1, 31)
    bessel = scipy.special.ive(ks, 1.0) * np.e   # independent I_k source
    i0 = scipy.special.ive(0, 1.0) * np.e
    for x, field in zip(stations, marched.fields):
        sol = evaluate_station(params, duct, ic, x, grid, fields=("q0",))
        worst = max(worst, float(np.max(np.abs(field - sol.q0))))
        damped = bessel * np.exp(-ks * ks * x)
        phi = i0 + 2.0 * np.sum(damped[:, None]
                                * np.cos(np.outer(ks, grid.tau)), axis=0)
        oracle_gap = max(oracle_gap,
                         float(np.max(np.abs(np.log(phi) - sol.q0))))
    report(2, "constant-channel exactness",
           worst <= 1e-4 and oracle_gap <= 1e-12,
           f"march vs q0 {worst:.2e}, q0 vs independent series "
           f"{oracle_gap:.2e}")


def test_c3_kernel_cross_oracle():
    t0 = time.perf_counter()
    grid = TauGrid.periodic_default(256)
    ic = InitialCondition.harmonic()
    worst = 0.0
    for a in (1.0, 10.0):
        for x in (0.08, 0.5, 2.0):
            via_series = kernel_series(ic, a, 1.0, x, grid)
            via_quad = kernel_quadrature(ic, a, 1.0, x, grid)
            worst = max(worst,
                        float(np.max(np.abs(via_series.k - via_quad.k))))
    elapsed = time.perf_counter() - t0
    report(3, "kernel cross-oracle", worst <= 1e-8 and elapsed < 1.0,
           f"max |series - quadrature| {worst:.2e} over 6 stations, "
           f"{elapsed:.2f}s")


def test_c4_weak_coupling_band(tmp_path):
    t0 = time.perf_counter()
    config = fig_config("fig1", out=tmp_path / "fig1")
    run(config)
    picture = compare(config, "qnum", "q1")
    elapsed = time.perf_counter() - t0
    ok = picture.overall_max_rel <= 0.01 and elapsed <= 60.0
    detail = ", ".join(f"{r.nu_x:g}:{r.max_rel:.2e}"
                       for r in picture.stations)
    report(4, "corrected field at a/nu = 1 within 1%", ok,
           f"per-station max-rel {detail}, {elapsed:.1f}s")


def test_c5_strong_coupling_band(tmp_path):
    t0 = time.perf_counter()
    config = fig_config("fig2", out=tmp_path / "fig2")
    run(config)
    lead = compare(config, "qnum", "q0")
    corrected = compare(config, "qnum", "q1")
    elapsed = time.perf_counter() - t0
    far = corrected.stations[-1]
    assert far.nu_x == 2.0
    in_band = 0.04 <= far.max_rel <= 0.10
    improves = all(c.max_rel < l.max_rel for c, l in
                   zip(corrected.stations, lead.stations))
    report(5, "a/nu = 10 band and ordering",
           in_band and improves and elapsed <= 120.0,
           f"at nu x = 2: {far.max_rel:.3f} in [0.04, 0.10]; "
           f"correction beats leading order at all 4 stations; "
           f"{elapsed:.1f}s")


def test_c6_invariant_exactness():
    t0 = time.perf_counter()
    details = []
    ok = True

    # constant-flare branch (quadratic term off), periodic orbit route
    betas = (1.0, 1.0, 0.0, -1.0)
    params = PhysParams(1.0, 1.0)
    config = InvariantConfig(betas=betas, params=params, c0=-0.1)
    orbit = first_integral_solution(-1.0, 1.0, -0.1)
    duct = ExponentialProfile(-1.0)
    for label, (n_tau, n_z) in (("coarse", (256, 64)), ("fine", (512, 128))):
        grid = TauGrid(n=n_tau, period=orbit.period)
        zetas = np.linspace(0.0, 0.4, n_z)
        fields = [assemble_invariant_q(config, z, grid, orbit)
                  for z in zetas]
        mu = duct.mu(params.nu, duct.x_of_zeta(zetas))
        if label == "coarse":
            coarse = residual(fields, zetas, params.a, mu, grid)
        else:
            fine = residual(fields, zetas, params.a, mu, grid)
    ratio = coarse / fine
    ok &= coarse <= 1e-4 and ratio >= 3.0
    details.append(f"flare branch {coarse:.2e} (x{ratio:.1f} under doubling)")

    # symmetric-quadratic branch (linear term off), factor-ODE route
    betas = (1.0, 0.0, 1.0, 1.0)
    config = InvariantConfig(betas=betas, params=params, w0=0.3, w0_slope=0.0)
    table = integrate_factor_ode(config, 0.9, lambda_min=-0.9)
    for label, (n_tau, n_z) in (("coarse", (256, 64)), ("fine", (512, 128))):
        grid = TauGrid.windowed(-1.0, 1.0, n_tau)
        zetas = np.linspace(0.3, 0.8, n_z)
        fields = [assemble_invariant_q(config, z, grid, table)
                  for z in zetas]
        mu = params.nu * np.exp(d_of_zeta(betas, zetas))
        if label == "coarse":
            coarse = residual(fields, zetas, params.a, mu, grid)
        else:
            fine = residual(fields, zetas, params.a, mu, grid)
    ratio = coarse / fine
    ok &= coarse <= 1e-4 and ratio >= 3.0
    details.append(f"quadratic branch {coarse:.2e} (x{ratio:.1f})")

    elapsed = time.perf_counter() - t0
    report(6, "invariant-solution equation residual", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_c7_perturbative_consistency():
    t0 = time.perf_counter()
    duct = ExponentialProfile(-0.1)
    ic = InitialCondition.harmonic()
    grid = TauGrid.periodic_default(256)
    amplitudes = np.array([0.02, 0.04, 0.08])
    gaps = []
    for a in amplitudes:
        sol = evaluate_station(PhysParams(a, 1.0), duct, ic, 1.0, grid,
                               fields=("q1", "qpt"))
        gaps.append(float(np.max(np.abs(sol.q1 - sol.qpt))))
    slope = np.polyfit(np.log(amplitudes), np.log(gaps), 1)[0]
    elapsed = time.perf_counter() - t0
    report(7, "small-coupling gap slope", 1.8 <= slope <= 2.2,
           f"fitted slope {slope:.3f} (want 2 +/- 0.2), {elapsed:.1f}s")


def test_c8_conservation_and_derivatives():
    t0 = time.perf_counter()
    params = PhysParams(1.0, 1.0)
    duct = ExponentialProfile(-0.1)
    ic = InitialCondition.harmonic()
    stations = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
    grid = TauGrid.periodic_default(256)
    marched = solve(ic, params, duct, grid,
                    SolverConfig(tol=1e-10, stations=stations, form="u"))
    drift = max(abs(float(np.mean(f))) for f in marched.fields)

    field = kernel_series(ic, 1.0, 1.0, 0.5, grid)
    h = 1e-4
    lo, mid, hi = (kernel_series(ic, 1.0 + m * h, 1.0, 0.5, grid).k
                   for m in (-1, 0, 1))
    fd_a = (hi - lo) / (2.0 * h)
    fd_aa = (lo - 2.0 * mid + hi) / h ** 2
    rel_a = float(np.max(np.abs(field.k_a - fd_a))
                  / np.max(np.abs(field.k_a)))
    rel_aa = float(np.max(np.abs(field.k_aa - fd_aa))
                   / np.max(np.abs(field.k_aa)))
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-10 and rel_a <= 1e-6 and rel_aa <= 1e-6
    report(8, "mean conservation and kernel derivatives", ok,
           f"u-mean drift {drift:.2e}; dK/da rel {rel_a:.2e}, "
           f"d2K/da2 rel {rel_aa:.2e}, {elapsed:.1f}s")


def test_c9_march_reproduces_invariant_field():
    # the march starts from the exact orbit-route field at zeta = 0 on its
    # own period and must land on the exact field downstream; the closed
    # forms' distance from the same field is printed as measured, not bounded
    t0 = time.perf_counter()
    params = PhysParams(1.0, 1.0)
    config = InvariantConfig(betas=(1.0, 1.0, 0.0, -1.0), params=params,
                             c0=-0.1)
    orbit = first_integral_solution(-1.0, 1.0, -0.1)
    duct = ExponentialProfile(-1.0)
    grid = TauGrid(256, period=orbit.period)
    ic = InitialCondition.tabulated(
        assemble_invariant_q(config, 0.0, grid, orbit), grid)
    zetas = (0.1, 0.2, 0.4)
    stations = tuple(math.log1p(z) for z in zetas)   # x on this duct
    marched = solve(ic, params, duct, grid,
                    SolverConfig(tol=1e-10, stations=stations))
    worst = 0.0
    closed = {name: [] for name in ("q0", "q1", "qpt")}
    for z, x, field in zip(zetas, stations, marched.fields):
        exact = assemble_invariant_q(config, z, grid, orbit)
        scale = float(np.max(np.abs(exact)))
        worst = max(worst, float(np.max(np.abs(field - exact))) / scale)
        sol = evaluate_station(params, duct, ic, x, grid,
                               fields=tuple(closed))
        for name, errs in closed.items():
            errs.append(float(np.max(np.abs(getattr(sol, name) - exact)))
                        / scale)
    measured = "; ".join(f"{name} " + " / ".join(f"{e:.1e}" for e in errs)
                         for name, errs in closed.items())
    elapsed = time.perf_counter() - t0
    report(9, "march reproduces the invariant field", worst <= 1e-9,
           f"max-rel {worst:.2e} at zeta 0.1 / 0.2 / 0.4; closed forms "
           f"measured {measured}, {elapsed:.1f}s")


def test_c10_slow_variation_order():
    # exact constant-flare orbits on ExponentialProfile(M), betas
    # (1, -M, 0, M): the closed forms' error against the exact field must
    # fall as |M| (q0) and |M|^2 (q1), the paper's slow-variation orders.
    # c0 = 0.1 M at a = nu = 1 holds gamma = a^2 c0/(nu |M|) = -0.1 fixed,
    # so the four orbits are one orbit rescaled: the amplitude is 1.957 at
    # every M and the period, the signal's wavelength, is exactly
    # 7.1425 |M|^(-1/2): on this branch the two are tied.  qpt and the
    # march are printed as measured, not bounded.
    t0 = time.perf_counter()
    params = PhysParams(1.0, 1.0)
    flares = np.array([-1.0, -0.25, -0.0625, -0.03125])
    x = 0.2
    errors = {name: [] for name in ("q0", "q1", "qpt", "qnum")}
    heights, periods = [], []
    for m in flares:
        config = InvariantConfig(betas=(1.0, -m, 0.0, m), params=params,
                                 c0=0.1 * m)
        orbit = first_integral_solution(m, 1.0, 0.1 * m)
        heights.append(orbit.w_top - orbit.w_bottom)
        periods.append(orbit.period)
        duct = ExponentialProfile(m)
        grid = TauGrid(256, period=orbit.period)
        ic = InitialCondition.tabulated(
            assemble_invariant_q(config, 0.0, grid, orbit), grid)
        exact = assemble_invariant_q(config, duct.zeta_of_x(x), grid, orbit)
        scale = float(np.max(np.abs(exact)))
        sol = evaluate_station(params, duct, ic, x, grid,
                               fields=("q0", "q1", "qpt"))
        marched = solve(ic, params, duct, grid,
                        SolverConfig(tol=1e-10, stations=(x,)))
        fields = {"q0": sol.q0, "q1": sol.q1, "qpt": sol.qpt,
                  "qnum": marched.fields[0]}
        for name, field in fields.items():
            errors[name].append(float(np.max(np.abs(field - exact))) / scale)
    log_m = np.log(-flares)
    order = {name: float(np.polyfit(log_m, np.log(errs), 1)[0])
             for name, errs in errors.items()}
    period_slope = float(np.polyfit(log_m, np.log(periods), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (0.8 <= order["q0"] <= 1.2 and 1.8 <= order["q1"] <= 2.2
          and elapsed <= 1.0)
    measured = "; ".join(f"{name} " + " / ".join(f"{e:.1e}" for e in errs)
                         for name, errs in errors.items())
    report(10, "slow-variation order against exact solutions", ok,
           f"order q0 {order['q0']:.2f} (want 1 +/- 0.2), q1 "
           f"{order['q1']:.2f} (want 2 +/- 0.2), qpt {order['qpt']:.2f}, "
           f"qnum {order['qnum']:.2f}; max-rel at M = -1 / -1/4 / -1/16 / "
           f"-1/32: {measured}; amplitude {min(heights):.3f} to "
           f"{max(heights):.3f}, period {periods[0]:.2f} to "
           f"{periods[-1]:.2f} (slope {period_slope:.2f} in log|M|), "
           f"{elapsed:.2f}s")
