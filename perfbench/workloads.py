"""Workload definitions and seeded input generation.

A workload is a list of jobs.  Each job is one ``hornwave.cli.main``
argument vector plus what its output must look like.  All inputs the
program sees (INI configs, a duct table, a throat-signal table) are
written here from the seed; the program receives only those files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("presets", "large-grid", "measured-ducts", "strong-coupling")

# Field columns in the order hornwave writes them.
_FIELD_ORDER = ("q0", "q1", "qpt", "qnum")

# Stations and couplings of the README presets (hornwave.cli._FIG_PRESETS),
# repeated here so the checks do not trust the program for what it should
# have written.
_FIGS = {
    "fig1": (1.0, (0.0, 0.2, 0.5, 1.0, 2.0, 4.0), ("q1", "qnum")),
    "fig1b": (10.0, (0.0, 0.08, 0.2, 0.5, 1.0, 2.0), ("q1", "qnum")),
    "fig2": (10.0, (0.2, 0.5, 1.0, 2.0), ("q0", "q1", "qnum")),
}

# a/nu at or below which the series and quadrature kernels must agree to
# SERIES_GAP_LIMIT on harmonic signals (acceptance criterion 3).
SERIES_GAP_MAX_REYNOLDS = 10.0
SERIES_GAP_LIMIT = 1e-8
INVARIANT_RESIDUAL_LIMIT = 1e-4


@dataclass(frozen=True)
class GapCase:
    """Harmonic kernel stations checked against the Bessel series."""

    phase: float
    a: float
    nu: float
    xs: tuple
    n: int


@dataclass
class Job:
    name: str
    command: str                 # hornwave subcommand
    config: Path | None          # INI file, or None for the fig presets
    out: Path
    jobs: int                    # --jobs as a user would pass it
    stations: int                # station_NNN.csv files expected
    columns: tuple               # station CSV header expected
    gap: GapCase | None = None
    invariant: bool = False      # must print an equation residual

    def argv(self, jobs=None):
        args = [self.command]
        if self.config is not None:
            args += ["--config", str(self.config)]
        return args + ["--out", str(self.out),
                       "--jobs", str(self.jobs if jobs is None else jobs)]


@dataclass
class Workload:
    name: str
    jobs: list = field(default_factory=list)


def _fmt(value):
    return "%.17g" % float(value)


def _write_ini(path: Path, sections: dict):
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _run_sections(a, profile, initial, stations, outputs, n):
    return {
        "params": {"a": _fmt(a), "nu": "1.0"},
        "profile": profile,
        "initial": initial,
        "run": {"stations": ", ".join(_fmt(s) for s in stations),
                "outputs": ", ".join(outputs), "grid_n": str(n)},
    }


def _run_job(work, name, *, a, profile, initial, stations, outputs, n,
             jobs=1, gap_phase=None):
    config = _write_ini(work / f"{name}.ini",
                        _run_sections(a, profile, initial, stations, outputs, n))
    gap = None
    if gap_phase is not None and a <= SERIES_GAP_MAX_REYNOLDS:
        gap = GapCase(gap_phase, a, 1.0, tuple(stations), n)
    return Job(name, "run", config, work / "out" / name, jobs, len(stations),
               ("tau",) + tuple(f for f in _FIELD_ORDER if f in outputs),
               gap=gap)


def _harmonic(phase):
    return {"kind": "harmonic", "amplitude": "1.0", "phase": _fmt(phase)}


_EXPONENTIAL = {"kind": "exponential", "alpha": "-0.1"}


def presets(work: Path, rng, reduced=False):
    """README presets plus the two criterion-6 invariant configs.

    The content is fixed; the seed only shuffles the job order.  There is
    no reduced copy: the criterion-6 residual bound needs 64 stations.
    """
    zeta_count = 64
    jobs = []
    for name, (a, stations, outputs) in _FIGS.items():
        jobs.append(Job(name, name, None, work / "out" / name, 1,
                        len(stations), ("tau",) + outputs,
                        gap=GapCase(0.0, a, 1.0, stations, 256)))
    orbit = _write_ini(work / "invariant-orbit.ini", {
        "params": {"a": "1.0", "nu": "1.0"},
        "invariant": {"beta0": "1.0", "beta1": "1.0", "beta2": "0.0",
                      "m": "-1.0", "route": "orbit", "c0": "-0.1",
                      "zeta_start": "0.0", "zeta_stop": "0.4",
                      "zeta_count": str(zeta_count)}})
    ode = _write_ini(work / "invariant-ode.ini", {
        "params": {"a": "1.0", "nu": "1.0"},
        "invariant": {"beta0": "1.0", "beta1": "0.0", "beta2": "1.0",
                      "m": "1.0", "route": "ode", "w0": "0.3",
                      "window_lo": "-1.0", "window_hi": "1.0",
                      "zeta_start": "0.3", "zeta_stop": "0.8",
                      "zeta_count": str(zeta_count)}})
    for name, path in (("invariant-orbit", orbit), ("invariant-ode", ode)):
        jobs.append(Job(name, "invariant", path, work / "out" / name, 1,
                        zeta_count, ("tau", "qinv"), invariant=True))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def large_grid(work: Path, rng, reduced=False):
    """One n = 4096 station run across a two-worker thread pool."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [_run_job(work, "large-grid", a=10.0, profile=_EXPONENTIAL,
                     initial=_harmonic(phase), stations=(1.0, 2.0),
                     outputs=("q0", "q1", "qpt", "qnum"),
                     n=512 if reduced else 4096, jobs=2, gap_phase=phase)]


def duct_table(rng, x_stop=4.0, count=65):
    """A tapering duct with a smooth seeded ripple, S(0) = 1 exactly."""
    x = np.linspace(0.0, x_stop, count)
    ripple = rng.uniform(0.02, 0.04)
    wavenumber = rng.uniform(2.0, 3.0)
    shift = rng.uniform(0.0, 2.0 * math.pi)
    log_area = -0.2 * x + ripple * (np.sin(wavenumber * x + shift)
                                    - math.sin(shift))
    return x, np.exp(log_area)


def throat_signal(rng, n=256):
    """Four seeded harmonics on the periodic grid, scaled to max |W| = 1."""
    tau = 2.0 * math.pi * np.arange(n) / n
    amps = np.concatenate(([1.0], rng.uniform(0.1, 0.2, 3) / np.arange(2, 5)))
    phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    w = sum(c * np.cos((m + 1) * tau - p)
            for m, (c, p) in enumerate(zip(amps, phases)))
    return tau, w / np.max(np.abs(w))


def _write_columns(path: Path, names, columns):
    rows = [",".join(names)]
    rows += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(rows) + "\n")
    return path


def measured_ducts(work: Path, rng, reduced=False):
    """A tabulated duct with a tabulated signal, then a beta-family duct.

    The duct goes in as the ``x,area`` CSV that ``hornwave profile``
    writes; the signal as a station CSV (``tau,qnum``).
    """
    n = 64 if reduced else 256
    x, area = duct_table(rng)
    duct = _write_columns(work / "duct.csv", ("x", "area"), (x, area))
    tau, w = throat_signal(rng, n)
    signal = _write_columns(work / "signal.csv", ("tau", "qnum"), (tau, w))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    outputs = ("q0", "q1", "qpt", "qnum")
    return [
        _run_job(work, "tabulated-duct", a=10.0,
                 profile={"kind": "table", "path": str(duct)},
                 initial={"kind": "table", "path": str(signal)},
                 stations=(0.5, 2.0), outputs=outputs, n=n),
        _run_job(work, "beta-duct", a=10.0,
                 profile={"kind": "beta", "beta0": "1.0", "beta1": "0.0",
                          "beta2": "0.05", "m": "-0.1"},
                 initial=_harmonic(phase), stations=(0.5, 2.0),
                 outputs=outputs, n=n, gap_phase=phase),
    ]


def strong_coupling(work: Path, rng, reduced=False):
    """a/nu = 50: the signal exponential spans e^100 across the period."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [_run_job(work, "strong-coupling", a=50.0, profile=_EXPONENTIAL,
                     initial=_harmonic(phase), stations=(0.2, 0.5, 1.0, 2.0),
                     outputs=("q0", "q1", "qnum"),
                     n=256 if reduced else 1024, gap_phase=phase)]


_BUILDERS = {
    "presets": presets,
    "large-grid": large_grid,
    "measured-ducts": measured_ducts,
    "strong-coupling": strong_coupling,
}


def build(name: str, work: Path, seed: int, reduced=False) -> Workload:
    """Write the workload's inputs under ``work`` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return Workload(name, _BUILDERS[name](work, rng, reduced))
