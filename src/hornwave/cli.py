"""Command-line front end: config files, runs, figure data, comparisons.

One engine computes any mix of the closed-form fields (q0, q1, qpt) and
the marched reference (qnum) on a shared station list, writing one CSV
per station plus a summary.  Subcommands are thin wrappers: ``analytic``
and ``solve`` restrict the output set, ``fig1``/``fig1b``/``fig2`` bake
in the published-figure configurations, ``invariant`` assembles the
shape-preserving fields, ``profile`` tabulates a duct, and ``compare``
reduces finished station files to relative-difference metrics.  Every
command runs on the calling thread and starts no other.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
# imported only for perfbench's tracer, which patches the name here;
# nothing in this module calls it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (ConfigError, DomainError, HornWaveError,
                     SingularProfileError)
from .grid import TWO_PI, TauGrid
from .invariant import (InvariantConfig, OrbitTable, assemble_invariant_q,
                        first_integral_solution, integrate_factor_ode)
from .kernel import InitialCondition
from .profiles import (BetaFamilyProfile, ConstantProfile, ExponentialProfile,
                       PowerLawProfile, Profile, SphericalProfile,
                       TabulatedProfile, d_of_zeta)
from .rg import PhysParams, evaluate_station
from .solver import SolverConfig, residual, solve

_FIELD_ORDER = ("q0", "q1", "qpt", "qnum")
_ALLOWED_OUTPUTS = _FIELD_ORDER + ("invariant",)
# headroom on the factor-ODE table beyond the lambda range the patch needs
_LAMBDA_PAD = 1.01


# ---------------------------------------------------------------------------
# CSV plumbing

def _write_csv(path: Path, names, columns):
    """One header row, 17-significant-digit cells, LF endings."""
    table = np.column_stack([np.atleast_1d(np.asarray(c)) for c in columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(names) + "\n" + body)
    return path


def read_field_table(path):
    """Text table (a station CSV, a duct table) as a dict of 1-d columns.

    Cells are separated by commas or blanks, and ``#`` starts a comment,
    on a line of its own or after the cells.  The first row names the
    columns unless it starts with a number; a table without such a
    header keys its columns by position (0, 1, ...).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"table {path} does not exist")
    rows = [cells for ln in path.read_text().splitlines()
            if (cells := ln.split("#", 1)[0].replace(",", " ").split())]
    if not rows:
        raise ConfigError(f"table {path} is empty")
    try:
        float(rows[0][0])
    except ValueError:
        names, body = rows[0], rows[1:]
    else:
        names, body = range(len(rows[0])), rows
    try:
        data = np.array([[float(v) for v in cells] for cells in body])
    except ValueError as err:
        raise ConfigError(f"table {path}: {err}") from err
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ConfigError(f"table {path}: ragged rows")
    return {name: data[:, i].copy() for i, name in enumerate(names)}


def _grid_from_tau(tau):
    """Rebuild the periodic sampling grid from written tau values.

    Round-tripped floats carry +-1 ulp of noise, so the periodic period
    snaps to 2 pi (the engine's cell) when within 1e-9 of it.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size < 3:
        raise ConfigError("need at least 3 tau samples")
    dt = np.diff(tau)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise ConfigError("tau samples are not uniformly spaced")
    period = float(dt.mean() * tau.size)
    if abs(period - TWO_PI) < 1e-9 * TWO_PI:
        period = TWO_PI
    start = float(tau[0])
    if abs(start) < 1e-9 * period:
        start = 0.0
    return TauGrid(n=tau.size, period=period, start=start)


def read_initial_table(path, column="qnum"):
    """Periodic initial condition from a station CSV written by this tool."""
    cols = read_field_table(path)
    if "tau" not in cols:
        raise ConfigError(f"{path} has no tau column")
    if column not in cols:
        raise ConfigError(f"{path} has no column {column!r}")
    grid = _grid_from_tau(cols["tau"])
    return InitialCondition.tabulated(cols[column], grid)


def read_profile_file(path) -> TabulatedProfile:
    """Duct from a table :func:`read_field_table` reads.  Two columns are
    (x, S) by position, with or without a header; a wider table, such as
    the CSV the ``profile`` subcommand writes, names ``x`` and ``area``."""
    cols = read_field_table(path)
    if len(cols) == 2:
        return TabulatedProfile(*cols.values())
    for need in ("x", "area"):
        if need not in cols:
            raise ConfigError(f"{path} has no column {need!r}")
    return TabulatedProfile(cols["x"], cols["area"])


def station_filename(index):
    return f"station_{index:03d}.csv"


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class InvariantSpec:
    """Parsed [invariant] section: the duct and W data, the zeta stations,
    the tau grid, and the orbit route's W ``table`` (None: the ode route)."""

    config: InvariantConfig
    zeta: tuple
    grid: TauGrid
    table: OrbitTable | None


@dataclass(frozen=True)
class RunConfig:
    """One run's settings.  Each default a config file or flag may leave
    out is written here and nowhere else."""

    # a generated grid's sample count when no setting or signal gives one
    FALLBACK_GRID_N: ClassVar[int] = 256

    params: PhysParams
    profile: Profile = ConstantProfile()
    ic: InitialCondition = InitialCondition.harmonic()
    stations: tuple = (1.0,)
    outputs: tuple = ("q1", "qnum")
    grid_n: int | None = None    # None: a tabulated signal's own count
    tol: float = 1e-8
    quad_rtol: float = 1e-6
    out: Path = Path("hornwave_out")
    invariant: InvariantSpec | None = None
    profile_x_stop: float | None = None
    profile_x_count: int = 129

    def __post_init__(self):
        st = tuple(float(s) for s in self.stations)
        if not st:
            raise ConfigError("stations list is empty")
        if any(b <= a for a, b in zip(st, st[1:])) or st[0] < 0.0:
            raise ConfigError("stations must be sorted, distinct, and >= 0")
        outs = tuple(self.outputs)
        if not outs:
            raise ConfigError("no outputs requested")
        for name in outs:
            if name not in _ALLOWED_OUTPUTS:
                raise ConfigError(
                    f"unknown output {name!r}; pick from {_ALLOWED_OUTPUTS}")
        if not (0.0 < self.tol < math.inf and 0.0 < self.quad_rtol < math.inf):
            raise ConfigError("tolerances must be positive and finite")
        if self.grid_n is None:
            object.__setattr__(self, "grid_n", self.ic.grid.n
                               if self.ic.kind == "tabulated"
                               else self.FALLBACK_GRID_N)
        object.__setattr__(self, "stations", st)
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "out", Path(self.out))


_SECTIONS = ("params", "profile", "initial", "run", "invariant")


class _TrackingParser(configparser.ConfigParser):
    """Remembers each (section, key) the loader reads, so that a setting
    it never reads (a typo, or a key another kind would use) is refused."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#", ";"))
        self.read_keys = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)

    def reject_unread(self, path):
        for section in self.sections():
            for key in self.options(section):
                if (section, key) not in self.read_keys:
                    raise ConfigError(
                        f"{path}: unknown or unused setting [{section}] {key}")
            if section not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section [{section}]")


def _finite(raw):
    """float(raw), which must be finite: nan and inf set nothing."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _need(cp, section, key, cast=_finite):
    if not cp.has_option(section, key):
        raise ConfigError(f"missing [{section}] {key}")
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err


def _opt(cp, section, key, default, cast=_finite):
    if not cp.has_option(section, key):
        return default
    return _need(cp, section, key, cast)


def _in_domain(key, mapping, *args):
    """Map a configured value through the model once; a value outside
    its domain is a configuration error naming ``key``."""
    try:
        mapping(*args)
    except (DomainError, SingularProfileError) as err:
        raise ConfigError(f"{key}: {err}") from err


def _float_list(raw):
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(_finite(p) for p in parts)


def _name_list(raw):
    parts = [p.strip() for p in raw.replace(",", " ").split()]
    return tuple(p for p in parts if p)


def _build_profile(cp) -> Profile:
    kind = _need(cp, "profile", "kind", str).strip().lower()
    if kind == "constant":
        return ConstantProfile()
    if kind == "exponential":
        return ExponentialProfile(_need(cp, "profile", "alpha"))
    if kind == "spherical":
        return SphericalProfile(_need(cp, "profile", "radius"))
    if kind == "powerlaw":
        return PowerLawProfile(_need(cp, "profile", "beta0"),
                               _need(cp, "profile", "beta1"),
                               _need(cp, "profile", "m"))
    if kind == "beta":
        cap = _opt(cp, "profile", "zeta_cap", None)
        return BetaFamilyProfile(_need(cp, "profile", "beta0"),
                                 _need(cp, "profile", "beta1"),
                                 _need(cp, "profile", "beta2"),
                                 _need(cp, "profile", "m"),
                                 zeta_cap=cap)
    if kind == "table":
        return read_profile_file(_need(cp, "profile", "path", str).strip())
    raise ConfigError(f"unknown profile kind {kind!r}")


def _build_initial(cp) -> InitialCondition:
    kind = _opt(cp, "initial", "kind", "harmonic", str).strip().lower()
    if kind == "harmonic":
        return InitialCondition.harmonic(
            amplitude=_opt(cp, "initial", "amplitude", 1.0),
            phase=_opt(cp, "initial", "phase", 0.0))
    if kind == "table":
        return read_initial_table(
            _need(cp, "initial", "path", str).strip(),
            column=_opt(cp, "initial", "column", "qnum", str).strip())
    raise ConfigError(f"unknown initial kind {kind!r}")


def _build_invariant(cp, params) -> InvariantSpec | None:
    if not cp.has_section("invariant"):
        return None
    betas = (_need(cp, "invariant", "beta0"),
             _opt(cp, "invariant", "beta1", 0.0),
             _opt(cp, "invariant", "beta2", 0.0),
             _need(cp, "invariant", "m"))
    route = _opt(cp, "invariant", "route", "orbit", str).strip().lower()
    if route not in ("orbit", "ode"):
        raise ConfigError(f"invariant route must be 'orbit' or 'ode', got {route!r}")
    kwargs = {}
    if route == "orbit":
        kwargs["c0"] = _need(cp, "invariant", "c0")
        kwargs["c1"] = _opt(cp, "invariant", "c1", 0.0)
    else:
        kwargs["w0"] = _need(cp, "invariant", "w0")
        kwargs["w0_slope"] = _opt(cp, "invariant", "w0_slope", 0.0)
    config = InvariantConfig(betas=betas, params=params, **kwargs)

    start = _need(cp, "invariant", "zeta_start")
    stop = _need(cp, "invariant", "zeta_stop")
    count = _need(cp, "invariant", "zeta_count", int)
    if count < 1 or stop < start:
        raise ConfigError("[invariant] zeta range must be non-empty and ordered")
    if count > 1 and stop == start:
        raise ConfigError(
            f"[invariant] zeta_count = {count} needs zeta_stop > zeta_start")
    for key, value in (("zeta_start", start), ("zeta_stop", stop)):
        _in_domain(f"[invariant] {key}", d_of_zeta, betas, value)
    zeta = tuple(np.linspace(start, stop, count))

    b0, b1, b2, m = betas
    if route == "ode":
        table = None
    elif b2 != 0.0 or b1 != -m:
        raise ConfigError("the orbit route needs the constant-flare branch "
                          "(beta2 = 0, beta1 = -M)")
    else:
        table = first_integral_solution(m, params.a, config.c0,
                                        c1=config.c1, nu=params.nu)

    n = _opt(cp, "invariant", "grid_n", RunConfig.FALLBACK_GRID_N, int)
    if cp.has_option("invariant", "window_lo") or cp.has_option("invariant", "window_hi"):
        grid = TauGrid.windowed(_need(cp, "invariant", "window_lo"),
                                _need(cp, "invariant", "window_hi"), n)
    elif table is None:
        raise ConfigError("[invariant] the ode route needs window_lo and window_hi")
    else:
        # one orbit period, stretched to tau at zeta = 0
        grid = TauGrid(n=n, period=table.period * math.sqrt(b0))
    return InvariantSpec(config=config, zeta=zeta, grid=grid, table=table)


# (section, key, RunConfig field, cast): the settings a file may leave out;
# the tolerances are plain floats, since RunConfig rejects a non-finite
# one whether it comes from the file or from a flag
_RUN_SETTINGS = (
    ("run", "stations", "stations", _float_list),
    ("run", "outputs", "outputs", _name_list),
    ("run", "grid_n", "grid_n", int),
    ("run", "tol", "tol", float),
    ("run", "quad_rtol", "quad_rtol", float),
    ("run", "out", "out", str),
    ("profile", "x_stop", "profile_x_stop", _finite),
    ("profile", "x_count", "profile_x_count", int),
)


def _given(**flags):
    """The command-line overrides that were passed (not None)."""
    return {key: value for key, value in flags.items() if value is not None}


def load_config(path, *, out=None, tol=None) -> RunConfig:
    """Parse an INI-style run description; CLI flags override file values."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    cp = _TrackingParser()
    try:
        cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err

    a, nu = _need(cp, "params", "a"), _opt(cp, "params", "nu", 1.0)
    if nu <= 0.0:
        raise ConfigError(f"[params] nu = {nu:g} must be positive")
    if a < 0.0:
        raise ConfigError(f"[params] a = {a:g} must be >= 0")
    params = PhysParams(a, nu)
    settings = {name: _need(cp, section, key, cast)
                for section, key, name, cast in _RUN_SETTINGS
                if cp.has_option(section, key)}
    if cp.has_section("profile"):
        settings["profile"] = _build_profile(cp)
    if cp.has_section("initial"):
        settings["ic"] = _build_initial(cp)
    settings.update(_given(out=out, tol=tol))
    config = RunConfig(params=params, invariant=_build_invariant(cp, params),
                       **settings)
    if config.profile_x_stop is not None:
        _in_domain("[profile] x_stop", config.profile.zeta_of_x,
                   config.profile_x_stop)
    cp.reject_unread(path)
    return config


# ---------------------------------------------------------------------------
# Engine

def run(config: RunConfig):
    """Compute the requested fields at every station and write the CSVs.

    Closed-form fields evaluate station by station, one after another;
    the marched reference is one sweep through all stations.  Output
    bytes depend only on the config.
    """
    if "invariant" in config.outputs:
        raise ConfigError("the invariant field has its own subcommand")
    analytic = [f for f in _FIELD_ORDER[:3] if f in config.outputs]
    want_march = "qnum" in config.outputs

    if config.ic.kind == "tabulated":
        grid = config.ic.grid
        if grid.n != config.grid_n:
            raise ConfigError(
                f"tabulated initial condition has {grid.n} samples, "
                f"config asks for {config.grid_n}")
    else:
        grid = TauGrid.periodic_default(config.grid_n)

    nu = config.params.nu
    x_stations = tuple(s / nu for s in config.stations)
    _in_domain("[run] stations", config.profile.zeta_of_x,
               np.asarray(x_stations))
    per_station = [{} for _ in x_stations]

    if analytic:
        for bucket, x in zip(per_station, x_stations):
            sol = evaluate_station(config.params, config.profile, config.ic,
                                   x, grid, fields=tuple(analytic),
                                   quad_rtol=config.quad_rtol)
            bucket.update((name, getattr(sol, name)) for name in analytic)

    if want_march:
        solver_cfg = SolverConfig(tol=config.tol, stations=x_stations)
        marched = solve(config.ic, config.params, config.profile, grid,
                        solver_cfg)
        for bucket, values in zip(per_station, marched.fields):
            bucket["qnum"] = values

    written = []
    ordered = [f for f in _FIELD_ORDER if f in config.outputs]
    for i, bucket in enumerate(per_station):
        names = ["tau"] + ordered
        cols = [grid.tau] + [bucket[f] for f in ordered]
        written.append(_write_csv(config.out / station_filename(i), names, cols))

    names = ["station", "nu_x", "x"] + [f"max_abs_{f}" for f in ordered]
    cols = [np.arange(len(x_stations)), np.asarray(config.stations),
            np.asarray(x_stations)]
    cols += [np.array([np.max(np.abs(b[f])) for b in per_station])
             for f in ordered]
    written.append(_write_csv(config.out / "summary.csv", names, cols))
    return written


@dataclass(frozen=True)
class StationComparison:
    station: int
    nu_x: float
    max_rel: float
    l2_rel: float


@dataclass(frozen=True)
class ComparisonReport:
    field_a: str
    field_b: str
    stations: tuple

    @property
    def overall_max_rel(self):
        return max(s.max_rel for s in self.stations)


def compare(config: RunConfig, field_a, field_b) -> ComparisonReport:
    """Relative differences of two finished columns, station by station.

    The denominator is max |field_a| over the period, so field_a is the
    reference.  Also writes comparison_<a>_vs_<b>.csv next to the data.
    """
    rows = []
    for i, s in enumerate(config.stations):
        cols = read_field_table(config.out / station_filename(i))
        for name in (field_a, field_b):
            if name not in cols:
                raise ConfigError(
                    f"{station_filename(i)} has no column {name!r}")
        ref = cols[field_a]
        diff = np.abs(cols[field_b] - ref)
        denom = float(np.max(np.abs(ref)))
        if denom == 0.0:
            denom = 1.0
        rows.append(StationComparison(
            i, s, float(np.max(diff) / denom),
            float(math.sqrt(np.mean(diff ** 2)) / denom)))
    report = ComparisonReport(field_a, field_b, tuple(rows))
    _write_csv(config.out / f"comparison_{field_a}_vs_{field_b}.csv",
               ["station", "nu_x", "max_rel", "l2_rel"],
               [np.array([r.station for r in rows]),
                np.array([r.nu_x for r in rows]),
                np.array([r.max_rel for r in rows]),
                np.array([r.l2_rel for r in rows])])
    return report


def run_invariant(config: RunConfig):
    """Assemble the shape-preserving field at each zeta station."""
    spec = config.invariant
    if spec is None:
        raise ConfigError("config has no [invariant] section")
    table = spec.table
    if table is None:
        def table(lam):
            # the factor ODE covers the lam span of every station, padded
            ode = integrate_factor_ode(
                spec.config, max(float(np.max(lam)), 1e-6) * _LAMBDA_PAD,
                lambda_min=min(float(np.min(lam)), 0.0) * _LAMBDA_PAD)
            return ode(lam)

    fields = assemble_invariant_q(spec.config, np.asarray(spec.zeta),
                                  spec.grid, table)
    written = []
    for i, values in enumerate(fields):
        written.append(_write_csv(config.out / station_filename(i),
                                  ["tau", "qinv"], [spec.grid.tau, values]))
    written.append(_write_csv(
        config.out / "summary.csv",
        ["station", "zeta", "max_abs_qinv"],
        [np.arange(len(spec.zeta)), np.asarray(spec.zeta),
         np.max(np.abs(fields), axis=1)]))

    defect = None
    if len(spec.zeta) >= 3:
        cfg, zeta = spec.config, np.asarray(spec.zeta)
        mu = cfg.params.nu * np.exp(d_of_zeta(cfg.betas, zeta))
        defect = residual(fields, zeta, cfg.params.a, mu, spec.grid)
    return written, defect


def run_profile(config: RunConfig):
    """Tabulate the duct: x, S, stretched coordinate, mu, and log-gain."""
    if config.profile_x_stop is None:
        raise ConfigError("missing [profile] x_stop for the tabulation range")
    if config.profile_x_count < 4:
        raise ConfigError("[profile] x_count must be at least 4")
    xs = np.linspace(0.0, config.profile_x_stop, config.profile_x_count)
    area = np.asarray(config.profile.area(xs), dtype=float)
    zeta = np.asarray(config.profile.zeta_of_x(xs), dtype=float)
    mu = config.params.nu * np.sqrt(area)
    d = 0.5 * np.log(area)
    return _write_csv(config.out / "profile.csv",
                      ["x", "area", "zeta", "mu", "d"],
                      [xs, area, zeta, mu, d])


# ---------------------------------------------------------------------------
# Figure presets

_FIG_PRESETS = {
    # exponential duct, unit-amplitude cosine signal, nu = 1 throughout:
    # the fields depend only on (a/nu, nu x, alpha/nu)
    "fig1": dict(a=1.0, stations=(0.0, 0.2, 0.5, 1.0, 2.0, 4.0),
                 outputs=("q1", "qnum")),
    "fig1b": dict(a=10.0, stations=(0.0, 0.08, 0.2, 0.5, 1.0, 2.0),
                  outputs=("q1", "qnum")),
    "fig2": dict(a=10.0, stations=(0.2, 0.5, 1.0, 2.0),
                 outputs=("q0", "q1", "qnum")),
}


def fig_config(name, *, out=None, tol=None) -> RunConfig:
    preset = _FIG_PRESETS[name]
    return RunConfig(
        params=PhysParams(preset["a"], 1.0),
        profile=ExponentialProfile(-0.1),
        stations=preset["stations"],
        outputs=preset["outputs"],
        out=out if out is not None else f"{name}_data",
        **_given(tol=tol))


# ---------------------------------------------------------------------------
# Entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hornwave",
        description="Weakly nonlinear waves in variable-section ducts: "
                    "closed-form fields, a marched reference, and exact "
                    "shape-preserving solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, config=True, jobs=False, tol=False):
        # only the flags the subcommand acts on, and --jobs where it once
        # set a worker count, so old command lines (perfbench's) still parse
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(tol=None)
        if config:
            cmd.add_argument("--config", type=Path, required=True,
                             help="INI-style run description")
        if jobs:
            cmd.add_argument("--jobs", type=int, metavar="N", help="ignored:"
                             " every station runs on the calling thread")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output directory override")
        if tol:
            cmd.add_argument("--tol", type=float, default=None,
                             help="marching tolerance override")
        return cmd

    add("profile", "tabulate S, zeta, mu, and the log-gain")
    add("run", "all configured outputs in one pass", jobs=True, tol=True)
    add("analytic", "closed-form fields at the configured stations",
        jobs=True)
    add("solve", "marched reference field at the configured stations",
        tol=True)
    add("invariant", "assemble shape-preserving fields", jobs=True)
    cmp_cmd = add("compare", "relative differences of two columns")
    cmp_cmd.add_argument("field_a", help="reference column")
    cmp_cmd.add_argument("field_b", help="column compared against it")
    fig = dict(config=False, jobs=True, tol=True)
    add("fig1", "signal decay, a/nu = 1 (writes data and comparison)", **fig)
    add("fig1b", "signal decay, a/nu = 10", **fig)
    add("fig2", "closed-form orders vs the march, a/nu = 10", **fig)
    return parser


def _print_report(report: ComparisonReport):
    for row in report.stations:
        print(f"station {row.station} (nu x = {row.nu_x:g}): "
              f"{report.field_a} vs {report.field_b}  "
              f"max {row.max_rel:.3e}  l2 {row.l2_rel:.3e}")
    print(f"overall max-relative: {report.overall_max_rel:.3e}")


def _dispatch(args) -> int:
    if args.command in _FIG_PRESETS:
        config = fig_config(args.command, out=args.out, tol=args.tol)
        written = run(config)
        print(f"wrote {len(written)} files to {config.out}")
        for ref in ("q0", "q1"):
            if ref in config.outputs:
                _print_report(compare(config, ref, "qnum"))
        return 0

    config = load_config(args.config, out=args.out, tol=args.tol)
    if args.command == "profile":
        path = run_profile(config)
        print(f"wrote {path}")
        return 0
    if args.command == "run":
        written = run(config)
        print(f"wrote {len(written)} files to {config.out}")
        return 0
    if args.command == "analytic":
        keep = tuple(f for f in config.outputs if f in _FIELD_ORDER[:3])
        if not keep:
            raise ConfigError("no closed-form outputs requested; "
                              "add q0, q1, or qpt to [run] outputs")
        written = run(replace(config, outputs=keep))
        print(f"wrote {len(written)} files to {config.out}")
        return 0
    if args.command == "solve":
        written = run(replace(config, outputs=("qnum",)))
        print(f"wrote {len(written)} files to {config.out}")
        return 0
    if args.command == "invariant":
        written, defect = run_invariant(config)
        print(f"wrote {len(written)} files to {config.out}")
        if defect is not None:
            print(f"equation residual (central differences): {defect:.3e}")
        return 0
    if args.command == "compare":
        _print_report(compare(config, args.field_a, args.field_b))
        return 0
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except HornWaveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
