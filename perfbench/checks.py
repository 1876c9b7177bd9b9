"""Output checks for one job, made by the benchmark's own reader.

A job passes when it exits 0, writes every station file and the summary
with the expected header, every cell is finite, the kernel's Bessel-series
gap at its harmonic stations is within the criterion-3 bound, and an
invariant job prints an equation residual within the criterion-6 bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from workloads import INVARIANT_RESIDUAL_LIMIT, SERIES_GAP_LIMIT

_RESIDUAL = re.compile(r"equation residual \(central differences\): (\S+)")


def read_csv(path):
    """Header names and the data rows of a CSV hornwave wrote."""
    with open(path) as handle:
        header = tuple(handle.readline().strip().split(","))
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, data


def series_gap(hw, case):
    """max |kernel_series - kernel_quadrature| of K over the case's stations."""
    grid = hw.grid.TauGrid.periodic_default(case.n)
    ic = hw.kernel.InitialCondition.harmonic(phase=case.phase)
    worst = 0.0
    for x in case.xs:
        series = hw.kernel.kernel_series(ic, case.a, case.nu, x / case.nu, grid)
        quad = hw.kernel.kernel_quadrature(ic, case.a, case.nu, x / case.nu,
                                           grid)
        worst = max(worst, float(np.max(np.abs(series.k - quad.k))))
    return worst


@dataclass
class JobResult:
    problems: list = field(default_factory=list)
    q1_err: float | None = None      # max over stations of compare(qnum, q1)
    residual: float | None = None    # printed invariant equation residual
    bytes_written: int = 0


def check_job(job, code, stdout, stderr, gap=None):
    result = JobResult()
    problems = result.problems
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
        return result
    if gap is not None and not gap <= SERIES_GAP_LIMIT:
        problems.append(f"series gap {gap:.3e} > {SERIES_GAP_LIMIT:g}")
    expected = [f"station_{i:03d}.csv" for i in range(job.stations)]
    for name in expected + ["summary.csv"]:
        if not (job.out / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return result
    for path in sorted(job.out.glob("*.csv")):
        result.bytes_written += path.stat().st_size
        header, data = read_csv(path)
        if path.name in expected and header != job.columns:
            problems.append(f"{path.name} header {header} != {job.columns}")
        if not np.all(np.isfinite(data)):
            problems.append(f"{path.name} has non-finite cells")
    if problems:
        return result
    if "q1" in job.columns and "qnum" in job.columns:
        worst = 0.0
        for name in expected:
            header, data = read_csv(job.out / name)
            ref = data[:, header.index("qnum")]
            diff = np.abs(data[:, header.index("q1")] - ref)
            worst = max(worst, float(np.max(diff) / np.max(np.abs(ref))))
        result.q1_err = worst
    if job.invariant:
        found = _RESIDUAL.search(stdout)
        if found is None:
            problems.append("no equation residual printed")
        else:
            result.residual = float(found.group(1))
            if not result.residual <= INVARIANT_RESIDUAL_LIMIT:
                problems.append(f"equation residual {result.residual:.3e} > "
                                f"{INVARIANT_RESIDUAL_LIMIT:g}")
    return result
