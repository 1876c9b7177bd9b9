"""The program runs on numpy alone: scipy is a test dependency only.

A fresh interpreter imports the command-line module and runs every route
that once called scipy (the fig1 preset, both invariant routes, a run on
a tabulated duct and one on a beta-family duct); no ``scipy`` module may
be loaded at the end.  The import alone must not load ``numpy.fft``
either: the march reaches it at call time, which keeps it out of the
start-up cost.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import sys
from pathlib import Path

import numpy as np

import hornwave.cli as cli

fft_at_import = "numpy.fft" in sys.modules
work = Path(sys.argv[1])


def write(name, body):
    path = work / name
    path.write_text(body)
    return str(path)


x = np.linspace(0.0, 2.0, 17)
area = np.exp(-0.2 * x + 0.03 * np.sin(3.0 * x))
rows = ["%.17g,%.17g" % row for row in zip(x, area)]
duct = write("duct.csv", "x,area\n" + "\n".join(rows) + "\n")
orbit = write("orbit.ini", "[params]\na = 1.0\n[invariant]\nbeta0 = 1.0\n"
              "beta1 = 1.0\nbeta2 = 0.0\nm = -1.0\nroute = orbit\nc0 = -0.1\n"
              "zeta_start = 0.0\nzeta_stop = 0.4\nzeta_count = 3\ngrid_n = 64\n")
ode = write("ode.ini", "[params]\na = 1.0\n[invariant]\nbeta0 = 1.0\n"
            "beta1 = 0.0\nbeta2 = 1.0\nm = 1.0\nroute = ode\nw0 = 0.3\n"
            "window_lo = -1.0\nwindow_hi = 1.0\nzeta_start = 0.3\n"
            "zeta_stop = 0.8\nzeta_count = 3\ngrid_n = 64\n")
run = ("[params]\na = 2.0\n[run]\nstations = 0.5, 1.0\n"
       "outputs = q0, q1, qpt, qnum\ngrid_n = 64\n")
table = write("table.ini", run + f"[profile]\nkind = table\npath = {duct}\n")
beta = write("beta.ini", run + "[profile]\nkind = beta\nbeta0 = 1.0\n"
             "beta1 = 0.0\nbeta2 = 0.05\nm = -0.1\n")
jobs = [["fig1"], ["invariant", "--config", orbit], ["invariant", "--config", ode],
        ["run", "--config", table], ["run", "--config", beta]]
for i, argv in enumerate(jobs):
    code = cli.main(argv + ["--out", str(work / f"out{i}")])
    assert code == 0, (argv, code)
print(fft_at_import)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_no_route_imports_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    fft_at_import, scipy_modules = done.stdout.strip().splitlines()[-2:]
    assert scipy_modules == "[]", done.stdout
    # numpy loads numpy.fft on first use; the import path must not
    assert fft_at_import == "False", done.stdout
