"""The benchmark's use of the library still works, checked without a run.

``perfbench/tracing.py`` replaces functions under the names it looks them
up by (``hornwave.kernel.adaptive_quad``, ``hornwave.cli.ThreadPoolExecutor``
and others); a renamed or deleted hook makes it raise ``KeyError`` on
entry.  Three of those names, ``adaptive_quad`` in ``hornwave.kernel`` and
``hornwave.profiles`` and ``ThreadPoolExecutor`` in ``hornwave.cli``, are
imported only for the tracer.
``perfbench/workloads.py`` passes command lines and config files the CLI
must still parse, and ``perfbench/checks.py`` calls the kernel routes by
name.
"""

import importlib.util
import sys
from pathlib import Path

import hornwave
import hornwave.cli  # noqa: F401  (the tracer patches names in the cli module)
import hornwave.grid  # noqa: F401  (checks.series_gap reads hw.grid)
import hornwave.kernel  # noqa: F401
import hornwave.profiles  # noqa: F401  (the tracer patches profile methods)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name, module_name):
    spec = importlib.util.spec_from_file_location(module_name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes,
    # and checks.py imports workloads under its plain name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _load_tracing(monkeypatch):
    return _load(monkeypatch, "tracing", "perfbench_tracing")


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    tracer = _load_tracing(monkeypatch).Tracer(hornwave)
    with tracer:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    assert not tracer._patches
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_tracer_patches_every_public_profile_map(monkeypatch):
    # the tracer skips a profile method it cannot find, so a renamed map
    # would lose its spans without an error
    maps = {name for name, value in vars(hornwave.Profile).items()
            if callable(value) and not name.startswith("_")}
    assert maps == {"area", "zeta_of_x", "x_of_zeta", "mu", "mu_x_over_mu"}
    with _load_tracing(monkeypatch).Tracer(hornwave) as tracer:
        patched = {attr for owner, attr, _ in tracer._patches
                   if owner is hornwave.Profile}
    assert patched == maps


# (module, attribute): imported by the module only so that the tracer
# finds the name it patches; the program itself never calls them.  Once
# the benchmark stops patching one, delete its import.
TRACER_ONLY_NAMES = ((hornwave.kernel, "adaptive_quad"),
                     (hornwave.profiles, "adaptive_quad"),
                     (hornwave.cli, "ThreadPoolExecutor"))


def test_names_kept_only_for_the_tracer(monkeypatch, tmp_path):
    with _load_tracing(monkeypatch).Tracer(hornwave) as tracer:
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
    for module, attr in TRACER_ONLY_NAMES:
        assert (module, attr) in patched, (
            f"the tracer no longer patches {module.__name__}.{attr}; "
            f"delete its import from {module.__name__}")

    def no_call(*args, **kwargs):
        raise AssertionError("a tracer-only name was called")

    for module, attr in TRACER_ONLY_NAMES:
        monkeypatch.setattr(module, attr, no_call)
    signal = hornwave.InitialCondition.harmonic()
    grid = hornwave.TauGrid.periodic_default(64)
    for a in (0.0, 2.0):
        hornwave.kernel_quadrature(signal, a, 1.0, 0.5, grid)
    hornwave.BetaFamilyProfile(1.0, 0.5, 0.25, 0.8)
    config = tmp_path / "run.ini"
    config.write_text("[params]\na = 1.0\n[profile]\nkind = beta\n"
                      "beta0 = 1.0\nbeta1 = 0.5\nbeta2 = 0.25\nm = 0.8\n"
                      "[run]\nstations = 0.2, 0.5\noutputs = q0, q1, qpt\n"
                      "grid_n = 64\n")
    assert hornwave.cli.main(["run", "--config", str(config), "--out",
                              str(tmp_path / "out"), "--jobs", "2"]) == 0


def test_every_workload_command_line_parses(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads", "workloads")
    parser = hornwave.cli._build_parser()
    for name in workloads.WORKLOADS:
        built = workloads.build(name, tmp_path / name, seed=1, reduced=True)
        assert built.jobs
        for job in built.jobs:
            args = parser.parse_args(job.argv())   # exits 2 on a stale flag
            assert args.command == job.command
            # a setting the loader stopped reading raises ConfigError
            if job.config is None:
                hornwave.cli.fig_config(job.command, out=job.out)
            else:
                hornwave.cli.load_config(job.config, out=job.out)


def test_series_gap_check_runs(monkeypatch):
    workloads = _load(monkeypatch, "workloads", "workloads")
    checks = _load(monkeypatch, "checks", "checks")
    case = workloads.GapCase(phase=0.3, a=2.0, nu=1.0, xs=(0.0, 0.5), n=64)
    gap = checks.series_gap(hornwave, case)
    assert 0.0 <= gap <= workloads.SERIES_GAP_LIMIT
