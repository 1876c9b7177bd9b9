"""Command-line front end: parsing, file formats, determinism, exit codes."""

import hashlib
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from hornwave import cli, profiles
from hornwave.cli import (ComparisonReport, RunConfig, compare, fig_config,
                          load_config, main, read_field_table,
                          read_initial_table, read_profile_file, run,
                          station_filename)
from hornwave.errors import ConfigError
from hornwave.grid import TauGrid
from hornwave.invariant import first_integral_solution
from hornwave.kernel import InitialCondition
from hornwave.profiles import ExponentialProfile
from hornwave.rg import PhysParams


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def small_config(tmp_path, **extra_run):
    """A fast exponential-duct run shared by several tests."""
    run_keys = {"stations": "0.2, 0.5", "outputs": "q0, q1, qnum",
                "grid_n": "64", "out": str(tmp_path / "data")}
    run_keys.update(extra_run)
    lines = ["[params]", "a = 1.0", "", "[profile]", "kind = exponential",
             "alpha = -0.1", "", "[run]"]
    lines += [f"{k} = {v}" for k, v in run_keys.items()]
    return write_config(tmp_path, "\n".join(lines) + "\n")


def tree_digest(directory):
    acc = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        acc.update(path.name.encode())
        acc.update(path.read_bytes())
    return acc.hexdigest()


class TestConfigParsing:

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_a_is_config_error(self, tmp_path):
        path = write_config(tmp_path, "[params]\nnu = 1.0\n")
        with pytest.raises(ConfigError, match=r"\[params\] a"):
            load_config(path)

    def test_empty_stations_rejected(self, tmp_path):
        path = small_config(tmp_path, stations="   ")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unsorted_stations_rejected(self):
        with pytest.raises(ConfigError, match="sorted"):
            RunConfig(params=PhysParams(1.0, 1.0),
                      profile=ExponentialProfile(-0.1),
                      ic=InitialCondition.harmonic(),
                      stations=(0.5, 0.2), outputs=("q1",))

    def test_negative_station_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(params=PhysParams(1.0, 1.0),
                      profile=ExponentialProfile(-0.1),
                      ic=InitialCondition.harmonic(),
                      stations=(-0.5, 0.2), outputs=("q1",))

    def test_unknown_output_rejected(self):
        with pytest.raises(ConfigError, match="unknown output"):
            RunConfig(params=PhysParams(1.0, 1.0),
                      profile=ExponentialProfile(-0.1),
                      ic=InitialCondition.harmonic(),
                      stations=(0.2,), outputs=("q9",))

    def test_no_outputs_rejected(self):
        with pytest.raises(ConfigError, match="no outputs"):
            RunConfig(params=PhysParams(1.0, 1.0),
                      profile=ExponentialProfile(-0.1),
                      ic=InitialCondition.harmonic(),
                      stations=(0.2,), outputs=())

    def test_unknown_profile_kind(self, tmp_path):
        path = write_config(tmp_path,
                            "[params]\na = 1\n[profile]\nkind = trumpet\n")
        with pytest.raises(ConfigError, match="trumpet"):
            load_config(path)

    def test_flag_overrides(self, tmp_path):
        path = small_config(tmp_path)
        config = load_config(path, out=tmp_path / "elsewhere", tol=1e-6)
        assert config.out == tmp_path / "elsewhere"
        assert config.tol == 1e-6

    @pytest.mark.parametrize("section,line", [
        ("params", "nuu = 1.0"),
        ("profile", "alpah = -0.2"),
        ("profile", "radius = 2.0"),        # read only for kind = spherical
        ("initial", "amplitud = 0.5"),
        ("initial", "periodic = false"),    # windowed signal tables are gone
        ("run", "station = 0.5, 2"),
        ("invariant", "zeta_cont = 4"),
        ("runs", "stations = 0.5"),
    ])
    def test_unread_setting_exits_2(self, tmp_path, capsys, section, line):
        # a setting the loader never reads must not pass silently
        sections = {
            "params": ["a = 1.0"],
            "profile": ["kind = exponential", "alpha = -0.1"],
            "initial": ["kind = harmonic", "amplitude = 0.5"],
            "run": ["stations = 0.5", "outputs = q0", "grid_n = 64",
                    f"out = {tmp_path / 'data'}"],
            "invariant": ["beta0 = 1.0", "beta1 = 1.0", "m = -1.0",
                          "c0 = -0.1", "zeta_start = 0.0", "zeta_stop = 0.2",
                          "zeta_count = 3", "grid_n = 64"],
        }

        def ini(name):
            return write_config(tmp_path, "".join(
                f"[{head}]\n" + "".join(f"{ln}\n" for ln in body)
                for head, body in sections.items()), name=name)

        load_config(ini("clean.ini"))
        sections.setdefault(section, []).append(line)
        path = ini("typo.ini")
        assert main(["run", "--config", str(path)]) == 2
        key = line.split("=")[0].strip()
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_empty_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[params]\na = 1.0\n[runs]\n")
        with pytest.raises(ConfigError, match=r"unknown section \[runs\]"):
            load_config(path)

    def test_defaults_without_run_section(self, tmp_path):
        path = write_config(tmp_path, "[params]\na = 2.0\n")
        config = load_config(path)
        assert config.params.a == 2.0
        assert config.params.nu == 1.0
        assert config.stations == (1.0,)
        assert config.grid_n == 256


def _reference_write_csv(path, names, columns):
    """The per-cell CSV writer: ``_write_csv`` must write the same bytes."""
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    rows = [",".join(names)]
    for i in range(columns[0].size):
        rows.append(",".join("%.17g" % float(c[i]) for c in columns))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    return path


class _CountingTable:
    """A W table that records the shape of every evaluation."""

    def __init__(self, table, calls):
        self._table, self._calls = table, calls

    def __getattr__(self, name):
        return getattr(self._table, name)

    def __call__(self, lam):
        self._calls.append(np.shape(lam))
        return self._table(lam)


class TestCsvFormat:

    @pytest.mark.parametrize("columns", [
        [np.arange(6), np.array([-0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0, 7.0])],
        [np.arange(3), 7 * np.arange(3)],
        [np.array([2.5]), np.array([-0.0])],
        [np.float64(0.1), 3],
    ], ids=["awkward-floats", "integers-only", "one-row", "scalars"])
    def test_writer_matches_per_cell_reference(self, tmp_path, columns):
        names = [f"c{i}" for i in range(len(columns))]
        got = cli._write_csv(tmp_path / "got.csv", names, columns)
        want = _reference_write_csv(tmp_path / "want.csv", names, columns)
        assert got.read_bytes() == want.read_bytes()

    def test_column_order_is_canonical(self, tmp_path):
        # config lists qnum first; the file keeps the schema order
        path = small_config(tmp_path, outputs="qnum, q0")
        config = load_config(path)
        run(config)
        header = (config.out / station_filename(0)).read_text().splitlines()[0]
        assert header == "tau,q0,qnum"

    def test_values_round_trip_exactly(self, tmp_path):
        config = load_config(small_config(tmp_path))
        run(config)
        cols = read_field_table(config.out / station_filename(1))
        from hornwave.grid import TauGrid
        grid = TauGrid.periodic_default(64)
        np.testing.assert_array_equal(cols["tau"], grid.tau)

    def test_summary_lists_every_station(self, tmp_path):
        config = load_config(small_config(tmp_path))
        run(config)
        cols = read_field_table(config.out / "summary.csv")
        np.testing.assert_array_equal(cols["station"], [0.0, 1.0])
        np.testing.assert_allclose(cols["nu_x"], [0.2, 0.5], rtol=0)
        assert "max_abs_q1" in cols and "max_abs_qnum" in cols


class TestDeterminism:

    def test_rerun_and_jobs_do_not_change_bytes(self, tmp_path, capsys):
        config = str(small_config(tmp_path))
        digests = []
        for name, flags in (("a", []), ("b", []), ("c", []),
                            ("d", ["--jobs", "2"])):
            out = tmp_path / name
            assert main(["run", "--config", config, "--out", str(out)]
                        + flags) == 0
            digests.append(tree_digest(out))
        assert len(set(digests)) == 1

    def test_jobs_starts_no_thread(self, tmp_path, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert main(["run", "--config", str(small_config(tmp_path)),
                     "--jobs", "2"]) == 0
        assert (tmp_path / "data" / "summary.csv").is_file()

    @pytest.mark.parametrize("command", ["run", "analytic", "invariant",
                                         "fig1", "fig1b", "fig2"])
    def test_jobs_is_parsed_as_an_int_and_dropped(self, command, capsys):
        argv = [command] + ([] if command.startswith("fig")
                            else ["--config", "run.ini"])
        args = cli._build_parser().parse_args(argv + ["--jobs", "3"])
        assert args.jobs == 3
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--jobs", "two"])
        assert stop.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestRoundTrip:

    def test_station_file_feeds_back_as_initial_condition(self, tmp_path):
        config = load_config(small_config(tmp_path))
        run(config)
        source = config.out / station_filename(1)
        ic = read_initial_table(source, column="qnum")
        assert ic.grid.n == 64 and ic.grid.periodic

        # station 0 of a restarted march returns the signal itself
        restart = write_config(tmp_path, f"""
[params]
a = 1.0
[profile]
kind = exponential
alpha = -0.1
[initial]
kind = table
path = {source}
column = qnum
[run]
stations = 0.0, 0.3
outputs = qnum
grid_n = 64
out = {tmp_path / 'restart'}
""", name="restart.ini")
        config2 = load_config(restart)
        run(config2)
        # the march stores spectra, so the echo carries fft round-trip ulps
        echoed = read_field_table(config2.out / station_filename(0))["qnum"]
        np.testing.assert_allclose(echoed, read_field_table(source)["qnum"],
                                   rtol=0.0, atol=1e-13)

    def test_signal_of_any_period_feeds_every_field(self, tmp_path):
        # a 64-sample signal of period 7: every field, the march included,
        # is written on the signal's own grid
        grid = TauGrid(64, period=7.0)
        theta = 2.0 * np.pi * grid.tau / 7.0
        signal = tmp_path / "signal.csv"
        signal.write_text("tau,w\n" + "".join(
            f"{t:.17g},{w:.17g}\n" for t, w in
            zip(grid.tau, np.cos(theta) + 0.3 * np.sin(2.0 * theta))))
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[profile]
kind = exponential
alpha = -0.1
[initial]
kind = table
path = {signal}
column = w
[run]
stations = 0.2, 0.5
outputs = q0, q1, qpt, qnum
grid_n = 64
out = {tmp_path / 'p7'}
""")
        assert main(["run", "--config", str(path)]) == 0
        cols = read_field_table(tmp_path / "p7" / station_filename(1))
        assert list(cols) == ["tau", "q0", "q1", "qpt", "qnum"]
        np.testing.assert_allclose(cols["tau"], grid.tau, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(cols["qnum"] - cols["q1"])) <= 1e-3

    def test_tabulated_signal_sets_grid_n(self, tmp_path):
        inv = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 1.0
beta2 = 0.0
m = -1.0
route = orbit
c0 = -0.1
zeta_start = 0.0
zeta_stop = 0.0
zeta_count = 1
grid_n = 64
[run]
out = {tmp_path / 'inv'}
""", name="inv.ini")
        assert main(["invariant", "--config", str(inv)]) == 0

        def march(name, grid_line):
            return write_config(tmp_path, f"""
[params]
a = 1.0
[profile]
kind = exponential
alpha = -1.0
[initial]
kind = table
path = {tmp_path / 'inv' / station_filename(0)}
column = qinv
[run]
stations = 0.0, 0.1
outputs = q0, qnum
{grid_line}
out = {tmp_path / name}
""", name=f"{name}.ini")

        assert main(["run", "--config", str(march("implicit", ""))]) == 0
        assert main(["run", "--config", str(march("explicit", "grid_n = 64"))]) == 0
        assert tree_digest(tmp_path / "implicit") == tree_digest(tmp_path / "explicit")
        # a grid_n the signal does not have is still a config error
        assert main(["run", "--config", str(march("other", "grid_n = 128"))]) == 2

    def test_invariant_station_file_starts_a_march(self, tmp_path):
        # the exact orbit-route field at zeta = 0, marched down the duct it
        # lives on (x = log1p(zeta)), lands on the exact field downstream
        zetas = (0.0, 0.1, 0.2)
        inv = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 1.0
beta2 = 0.0
m = -1.0
route = orbit
c0 = -0.1
zeta_start = 0.0
zeta_stop = 0.2
zeta_count = 3
grid_n = 64
[run]
out = {tmp_path / 'inv'}
""", name="inv.ini")
        assert main(["invariant", "--config", str(inv)]) == 0
        stations = ", ".join(repr(math.log1p(z)) for z in zetas)
        march = write_config(tmp_path, f"""
[params]
a = 1.0
[profile]
kind = exponential
alpha = -1.0
[initial]
kind = table
path = {tmp_path / 'inv' / station_filename(0)}
column = qinv
[run]
stations = {stations}
outputs = q1, qnum
grid_n = 64
tol = 1e-10
out = {tmp_path / 'march'}
""", name="march.ini")
        assert main(["run", "--config", str(march)]) == 0
        for i in range(len(zetas)):
            exact = read_field_table(tmp_path / "inv" / station_filename(i))
            marched = read_field_table(tmp_path / "march" / station_filename(i))
            gap = np.max(np.abs(marched["qnum"] - exact["qinv"]))
            assert gap <= 1e-9 * np.max(np.abs(exact["qinv"]))

    def test_profile_csv_reloads_as_duct(self, tmp_path):
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[profile]
kind = spherical
radius = 2.0
x_stop = 1.5
x_count = 201
[run]
stations = 0.5
out = {tmp_path / 'p'}
""")
        assert main(["profile", "--config", str(path)]) == 0
        duct = read_profile_file(tmp_path / "p" / "profile.csv")
        xs = np.linspace(0.0, 1.4, 9)
        np.testing.assert_allclose(duct.area(xs), (1.0 + 0.5 * xs) ** 2,
                                   rtol=1e-7)

    # %.18e is np.savetxt's default; its exponent letter is not a header,
    # and neither is a first row of comma-separated numbers
    @pytest.mark.parametrize("fmt, delimiter",
                             [("%.12g", " "), ("%.18e", " "), ("%.18e", ",")],
                             ids=["short", "savetxt-default", "comma"])
    def test_plain_two_column_profile_accepted(self, tmp_path, fmt,
                                               delimiter):
        xs = np.linspace(0.0, 2.0, 41)
        table = tmp_path / "duct.dat"
        np.savetxt(table, np.column_stack([xs, np.exp(0.3 * xs)]), fmt=fmt,
                   delimiter=delimiter, header="test duct")
        duct = read_profile_file(table)
        np.testing.assert_allclose(duct.area(1.0), np.exp(0.3), rtol=1e-6)

    def test_comment_and_whitespace_format(self, tmp_path):
        path = tmp_path / "duct.txt"
        xs = np.linspace(0.0, 2.0, 9)
        lines = ["# x   S", *(f"{x:.6f}   {math.exp(0.4 * x):.12f}  # sample"
                             for x in xs)]
        path.write_text("\n".join(lines) + "\n")
        duct = read_profile_file(path)
        assert duct.area(1.0) == pytest.approx(math.exp(0.4), rel=1e-6)

    @pytest.mark.parametrize("header, delimiter", [
        ("x S", " "), ("x,S", ","), ("depth, section", ", ")],
        ids=["blank", "comma", "any-names"])
    def test_two_column_table_with_header_row(self, tmp_path, header,
                                              delimiter):
        # two columns are (x, S) by position, whatever the header says
        xs = np.linspace(0.0, 2.0, 41)
        rows = [header] + [f"{x:.17g}{delimiter}{math.exp(0.3 * x):.17g}"
                           for x in xs]
        table = tmp_path / "duct.dat"
        table.write_text("\n".join(rows) + "\n")
        duct = read_profile_file(table)
        plain = tmp_path / "plain.dat"
        plain.write_text("\n".join(rows[1:]) + "\n")
        xq = np.linspace(0.0, 2.0, 17)
        np.testing.assert_array_equal(duct.area(xq),
                                      read_profile_file(plain).area(xq))
        np.testing.assert_allclose(duct.area(1.0), np.exp(0.3), rtol=1e-6)

    @pytest.mark.parametrize("header", ["", "x,S,mu\n"],
                             ids=["headless", "no-area"])
    def test_wider_table_must_name_x_and_area(self, tmp_path, header):
        table = tmp_path / "duct.csv"
        table.write_text(header + "".join(f"{x},1,1\n" for x in range(5)))
        with pytest.raises(ConfigError, match="has no column"):
            read_profile_file(table)


class TestCompare:

    def test_identical_fields_give_zero(self, tmp_path):
        config = load_config(small_config(tmp_path))
        run(config)
        report = compare(config, "q1", "q1")
        assert isinstance(report, ComparisonReport)
        assert report.overall_max_rel == 0.0
        assert all(r.l2_rel == 0.0 for r in report.stations)

    def test_missing_column_is_config_error(self, tmp_path):
        config = load_config(small_config(tmp_path, outputs="q1, qnum"))
        run(config)
        with pytest.raises(ConfigError, match="qpt"):
            compare(config, "qpt", "qnum")

    def test_comparison_file_written(self, tmp_path):
        config = load_config(small_config(tmp_path))
        run(config)
        compare(config, "q0", "qnum")
        cols = read_field_table(config.out / "comparison_q0_vs_qnum.csv")
        assert set(cols) == {"station", "nu_x", "max_rel", "l2_rel"}
        assert cols["max_rel"].size == 2


class TestSubcommands:

    def test_analytic_requires_closed_form_output(self, tmp_path, capsys):
        path = small_config(tmp_path, outputs="qnum")
        assert main(["analytic", "--config", str(path)]) == 2
        assert "closed-form" in capsys.readouterr().err

    def test_solve_writes_only_the_march(self, tmp_path):
        path = small_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        header = (tmp_path / "data" / station_filename(0)
                  ).read_text().splitlines()[0]
        assert header == "tau,qnum"

    def test_breakdown_exits_3(self, tmp_path, capsys):
        # strong coupling near the throat of a decaying duct: the leading
        # closed form loses its logarithm argument
        path = write_config(tmp_path, f"""
[params]
a = 10.0
[profile]
kind = exponential
alpha = -0.1
[run]
stations = 0.08
outputs = q0
out = {tmp_path / 'bad'}
""")
        assert main(["analytic", "--config", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("fig1", "--config", None), ("fig1b", "--config", None),
        ("fig2", "--config", None),
        ("profile", "--tol", "1e-6"), ("analytic", "--tol", "1e-6"),
        ("invariant", "--tol", "1e-6"), ("compare", "--tol", "1e-6"),
        ("profile", "--jobs", "2"), ("solve", "--jobs", "2"),
        ("compare", "--jobs", "2"),
    ])
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys,
                                              command, flag, value):
        # the subcommand does not act on the flag, so argparse refuses it
        # before any work starts
        config = str(small_config(tmp_path))
        argv = [command]
        if not command.startswith("fig"):
            argv += ["--config", config]
        if command == "compare":
            argv += ["q0", "qnum"]
        argv += ["--out", str(tmp_path / "data"), flag, value or config]
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err
        assert not (tmp_path / "data").exists()

    def test_overflowing_sum_writes_no_station_file(self, tmp_path, capsys):
        # exp(a W / nu) is finite, its spectrum is not: the run stops with
        # a typed error before an inf can reach a CSV
        tau = TauGrid.periodic_default(64).tau
        signal = cli._write_csv(tmp_path / "signal.csv", ["tau", "qnum"],
                                [tau, 69.7 + np.cos(tau)])
        path = write_config(tmp_path, f"""
[params]
a = 10.0
[initial]
kind = table
path = {signal}
[run]
stations = 0.5
outputs = q0
out = {tmp_path / 'data'}
""")
        assert main(["run", "--config", str(path)]) == 3
        assert "spectrum of exp(a W / nu) overflows" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command, body, key", [
        ("run", "[params]\na = 1\nnu = 0\n[run]\n", "[params] nu"),
        ("run", "[params]\na = 1\nnu = -1\n[run]\n", "[params] nu"),
        ("run", "[params]\na = -1\n[run]\n", "[params] a"),
        ("run", "[params]\na = 1\nnu = inf\n[run]\nstations = 0.5\n"
         "outputs = q0, q1, qpt, qnum\ngrid_n = 64\n", "[params] nu"),
        ("invariant", "[params]\na = inf\n[invariant]\nbeta0 = 1\n"
         "beta1 = 1\nm = -1\nc0 = -0.1\nzeta_start = 0\nzeta_stop = 0.4\n"
         "zeta_count = 8\ngrid_n = 64\n[run]\n", "[params] a"),
        ("run", "[params]\na = 1\n[profile]\nkind = spherical\n"
         "radius = -1\n[run]\nstations = 0.5, 1.5\n", "[run] stations"),
        ("run", "[params]\na = 1\n[profile]\nkind = powerlaw\nbeta0 = 1\n"
         "beta1 = -3\nm = 1\n[run]\nstations = 0.6\n", "[run] stations"),
        ("run", "[params]\na = 1\n[run]\nstations = nan\noutputs = q0\n"
         "grid_n = 64\n", "[run] stations"),
        ("run", "[params]\na = 1\n[run]\nstations = 0.5\ngrid_n = 64\n"
         "tol = nan\n", "tolerances"),
        ("run", "[params]\na = 1\n[run]\nstations = 0.5\ngrid_n = 64\n"
         "quad_rtol = inf\n", "tolerances"),
        ("profile", "[params]\na = 1\n[profile]\nkind = spherical\n"
         "radius = -1\nx_stop = 2\n[run]\n", "[profile] x_stop"),
        ("invariant", "[params]\na = 1\n[invariant]\nbeta0 = 1\nbeta1 = 1\n"
         "m = -1\nc0 = -0.1\nzeta_start = -0.2\nzeta_stop = 0.4\n"
         "zeta_count = 8\ngrid_n = 64\n[run]\n", "[invariant] zeta_start"),
        ("invariant", "[params]\na = 1\n[invariant]\nbeta0 = 1\n"
         "beta1 = -2.5\nbeta2 = 1\nm = 1\nroute = ode\nw0 = 0.3\n"
         "window_lo = -1\nwindow_hi = 1\nzeta_start = 0.1\n"
         "zeta_stop = 0.7\nzeta_count = 8\ngrid_n = 64\n[run]\n",
         "[invariant] zeta_stop"),
    ], ids=["nu-zero", "nu-negative", "a-negative", "nu-inf", "a-inf",
            "station-past-cone",
            "station-past-power-law", "station-nan", "tol-nan",
            "quad-rtol-inf", "x-stop-past-cone", "zeta-negative",
            "zeta-past-root"])
    def test_value_outside_the_model_domain_exits_2(self, tmp_path, capsys,
                                                    command, body, key):
        # each body ends in its [run] section
        path = write_config(tmp_path, body + f"out = {tmp_path / 'data'}\n")
        assert main([command, "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command, body, key", [
        ("invariant", "[params]\na = 1\n[invariant]\nbeta0 = 1\nbeta1 = 1\n"
         "m = -1\nc0 = nan\nzeta_start = 0\nzeta_stop = 0.4\n"
         "zeta_count = 8\ngrid_n = 64\n[run]\n", "[invariant] c0"),
        ("run", "[params]\na = 1\n[profile]\nkind = powerlaw\nbeta0 = nan\n"
         "beta1 = 1\nm = 1\n[run]\nstations = 0.5\noutputs = q1\n"
         "grid_n = 64\n", "[profile] beta0"),
        ("run", "[params]\na = 1\n[profile]\nkind = powerlaw\nbeta0 = 1\n"
         "beta1 = nan\nm = 1\n[run]\nstations = 0.5\noutputs = q1\n"
         "grid_n = 64\n", "[profile] beta1"),
        ("run", "[params]\na = 1\n[profile]\nkind = beta\nbeta0 = 1\n"
         "beta1 = nan\nbeta2 = 0\nm = 1\n[run]\nstations = 0.5\n"
         "outputs = q1\ngrid_n = 64\n", "[profile] beta1"),
        ("run", "[params]\na = 1\n[initial]\namplitude = nan\n[run]\n"
         "stations = 0.5\noutputs = q0\ngrid_n = 64\n", "[initial] amplitude"),
        ("run", "[params]\na = 1\n[initial]\nphase = inf\n[run]\n"
         "stations = 0.5\noutputs = q0\ngrid_n = 64\n", "[initial] phase"),
        ("invariant", "[params]\na = 1\n[invariant]\nbeta0 = nan\nbeta1 = 1\n"
         "m = -1\nc0 = -0.1\nzeta_start = 0\nzeta_stop = 0.4\n"
         "zeta_count = 8\ngrid_n = 64\n[run]\n", "[invariant] beta0"),
        ("run", "[params]\na = 1\n[run]\nstations = 0.5, -inf\n"
         "outputs = q0\ngrid_n = 64\n", "[run] stations"),
    ], ids=["c0-nan", "powerlaw-beta0-nan", "powerlaw-beta1-nan",
            "beta-beta1-nan", "amplitude-nan", "phase-inf",
            "invariant-beta0-nan", "station-minus-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, body,
                                       key):
        # nan and inf are no setting: the loader names the key, before any
        # numeric layer can fail on them with exit 3
        path = write_config(tmp_path, body + f"out = {tmp_path / 'data'}\n")
        assert main([command, "--config", str(path)]) == 2
        assert f"{key} = " in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_duct_sample_exits_2(self, tmp_path, capsys, bad):
        duct = tmp_path / "duct.csv"
        duct.write_text(f"x,area\n0,1\n0.5,0.9\n1,{bad}\n1.5,0.7\n2,0.6\n")
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[profile]
kind = table
path = {duct}
[run]
stations = 0.5
outputs = q0
grid_n = 64
out = {tmp_path / 'data'}
""")
        assert main(["run", "--config", str(path)]) == 2
        assert "samples must be finite" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_default_station_is_checked_before_any_output(self, tmp_path,
                                                          capsys):
        # with no [run] stations line the run reads station 1, which lies at
        # this cone's focal point: a configuration error naming the key
        path = write_config(tmp_path, "[params]\na = 1\n[profile]\n"
                            "kind = spherical\nradius = -1\n[run]\n"
                            f"out = {tmp_path / 'data'}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "[run] stations" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_profile_needs_x_stop(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert main(["profile", "--config", str(path)]) == 2
        assert "x_stop" in capsys.readouterr().err

    def test_invariant_orbit_route(self, tmp_path, capsys):
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 1.0
beta2 = 0.0
m = -1.0
route = orbit
c0 = -0.1
zeta_start = 0.0
zeta_stop = 0.4
zeta_count = 16
grid_n = 64
[run]
stations = 1.0
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "equation residual" in out
        cols = read_field_table(tmp_path / "inv" / station_filename(3))
        assert list(cols) == ["tau", "qinv"]
        summary = read_field_table(tmp_path / "inv" / "summary.csv")
        assert summary["zeta"].size == 16

    def test_invariant_orbit_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return first_integral_solution(*args, **kwargs)

        monkeypatch.setattr(cli, "first_integral_solution", counted)
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 1.0
beta2 = 0.0
m = -1.0
route = orbit
c0 = -0.1
zeta_start = 0.0
zeta_stop = 0.4
zeta_count = 4
grid_n = 64
[run]
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 0
        assert len(calls) == 1
        cols = read_field_table(tmp_path / "inv" / station_filename(0))
        period = first_integral_solution(-1.0, 1.0, -0.1).period
        np.testing.assert_allclose(cols["tau"][1] * 64, period, rtol=1e-12)

    @pytest.mark.parametrize("route, builder, section", [
        ("orbit", "first_integral_solution",
         "beta1 = 1.0\nbeta2 = 0.0\nm = -1.0\nc0 = -0.1\n"
         "zeta_start = 0.0\nzeta_stop = 0.4\n"),
        ("ode", "integrate_factor_ode",
         "beta1 = 0.0\nbeta2 = 1.0\nm = 1.0\nw0 = 0.3\n"
         "zeta_start = 0.3\nzeta_stop = 0.8\n"
         "window_lo = -1.0\nwindow_hi = 1.0\n"),
    ], ids=["orbit", "ode"])
    def test_invariant_w_table_called_once(self, tmp_path, monkeypatch,
                                           route, builder, section):
        calls = []
        build = getattr(cli, builder)
        monkeypatch.setattr(cli, builder, lambda *args, **kwargs:
                            _CountingTable(build(*args, **kwargs), calls))
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
route = {route}
{section}zeta_count = 8
grid_n = 64
[run]
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 0
        assert calls == [(8, 64)]

    def test_invariant_orbit_needs_constant_flare(self, tmp_path, capsys):
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 0.0
beta2 = 1.0
m = 1.0
route = orbit
c0 = -0.1
zeta_start = 0.0
zeta_stop = 0.4
zeta_count = 8
[run]
stations = 1.0
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 2
        assert "constant-flare" in capsys.readouterr().err

    @pytest.mark.parametrize("betas", [(1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 1.0)])
    def test_orbit_spec_off_the_flare_branch_rejected(self, tmp_path, betas):
        # the parser checks the branch: the orbit route is refused off the
        # constant-flare branch, the ode route takes the same duct
        b0, b1, b2, m = betas
        duct = (f"[params]\na = 1.0\n[invariant]\nbeta0 = {b0}\n"
                f"beta1 = {b1}\nbeta2 = {b2}\nm = {m}\nzeta_start = 0.0\n"
                f"zeta_stop = 0.1\nzeta_count = 2\ngrid_n = 64\n")
        orbit = write_config(tmp_path, duct + "route = orbit\nc0 = -0.1\n",
                             name="orbit.ini")
        with pytest.raises(ConfigError, match="constant-flare"):
            load_config(orbit)
        ode = write_config(tmp_path, duct + "route = ode\nw0 = 0.3\n"
                           "window_lo = -1.0\nwindow_hi = 1.0\n", name="ode.ini")
        assert load_config(ode).invariant.table is None

    @pytest.mark.parametrize("route, section, key", [
        ("orbit", "beta1 = 1.0\nm = -1.0\nc0 = -0.1\nperiod = 7.0\n",
         "[invariant] period"),
        ("ode", "beta2 = 1.0\nm = 1.0\nw0 = 0.3\nwindow_lo = -1.0\n"
         "window_hi = 1.0\nperiod = 2.0\n", "[invariant] period"),
        ("ode", "beta2 = 1.0\nm = 1.0\nw0 = 0.3\n", "window_lo"),
    ], ids=["orbit-period", "ode-period", "ode-without-window"])
    def test_invariant_route_sets_its_own_grid(self, tmp_path, capsys,
                                               route, section, key):
        # the orbit grid spans one orbit period and the ode grid is the
        # window: a period of the user's would give a field that is not a
        # solution, so it is refused
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
route = {route}
{section}zeta_start = 0.3
zeta_stop = 0.8
zeta_count = 8
grid_n = 64
[run]
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "inv").exists()

    def test_invariant_zero_width_zeta_range(self, tmp_path, capsys):
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 1.0
beta2 = 0.0
m = -1.0
route = orbit
c0 = -0.1
zeta_start = 0.2
zeta_stop = 0.2
zeta_count = 4
[run]
stations = 1.0
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 2
        assert "zeta_stop > zeta_start" in capsys.readouterr().err

    def test_invariant_ode_route(self, tmp_path):
        path = write_config(tmp_path, f"""
[params]
a = 1.0
[invariant]
beta0 = 1.0
beta1 = 0.0
beta2 = 1.0
m = 1.0
route = ode
w0 = 0.3
w0_slope = 0.0
zeta_start = 0.3
zeta_stop = 0.8
zeta_count = 8
grid_n = 64
window_lo = -1.0
window_hi = 1.0
[run]
stations = 1.0
out = {tmp_path / 'ode'}
""")
        assert main(["invariant", "--config", str(path)]) == 0
        cols = read_field_table(tmp_path / "ode" / station_filename(0))
        assert cols["qinv"].size == 64

    @pytest.mark.parametrize("route, section, line", [
        ("orbit", "beta1 = 1.0\nbeta2 = 0.0\nm = -1.0\nc0 = -0.1\n"
         "zeta_start = 0.0\nzeta_stop = 0.4\n",
         "equation residual (central differences): 5.885e-05"),
        ("ode", "beta1 = 0.0\nbeta2 = 1.0\nm = 1.0\nw0 = 0.3\n"
         "window_lo = -1.0\nwindow_hi = 1.0\n"
         "zeta_start = 0.3\nzeta_stop = 0.8\n",
         "equation residual (central differences): 6.749e-06"),
    ], ids=["orbit", "ode"])
    def test_invariant_residual_builds_no_duct_table(
            self, tmp_path, monkeypatch, capsys, route, section, line):
        # the criterion-6 configs: the residual reads mu = nu exp(d(zeta))
        # in closed form, so no coordinate table is ever built
        def refuse(*args, **kwargs):
            raise AssertionError("a duct table was built")

        monkeypatch.setattr(profiles._TableMapProfile, "_tabulate_map", refuse)
        path = write_config(tmp_path, f"""
[params]
a = 1.0
nu = 1.0
[invariant]
beta0 = 1.0
route = {route}
{section}zeta_count = 64
[run]
out = {tmp_path / 'inv'}
""")
        assert main(["invariant", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line

    def test_run_without_invariant_section(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert main(["invariant", "--config", str(path)]) == 2
        assert "invariant" in capsys.readouterr().err


class TestFigPresets:

    def test_preset_configurations(self):
        fig1 = fig_config("fig1")
        assert fig1.params.a == 1.0 and fig1.params.nu == 1.0
        assert fig1.stations == (0.0, 0.2, 0.5, 1.0, 2.0, 4.0)
        assert fig1.outputs == ("q1", "qnum")
        fig1b = fig_config("fig1b")
        assert fig1b.params.a == 10.0
        assert fig1b.stations == (0.0, 0.08, 0.2, 0.5, 1.0, 2.0)
        fig2 = fig_config("fig2")
        assert fig2.outputs == ("q0", "q1", "qnum")

    def test_fig2_writes_both_comparisons(self, tmp_path, capsys):
        assert main(["fig2", "--out", str(tmp_path / "f2"),
                     "--jobs", "2"]) == 0
        assert (tmp_path / "f2" / "comparison_q0_vs_qnum.csv").is_file()
        assert (tmp_path / "f2" / "comparison_q1_vs_qnum.csv").is_file()
        assert "overall max-relative" in capsys.readouterr().out
