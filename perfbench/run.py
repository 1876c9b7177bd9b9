"""hornwave benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each job is one in-process ``hornwave.cli.main([...])`` call, the code
path of the ``hornwave`` command minus interpreter start.  A pass runs
the workload's jobs one after another.  The run measures set-up, one
cold pass, then warm passes until ``--seconds`` is used up (at least
one), and checks every job's output.  With ``--trace 1`` it then runs
two traced passes, one at the workload's ``--jobs`` and one at the other
job count, and reports per-layer numbers instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench_work/`` under the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
# A cold pass is a single sample and the box's speed drifts, so when the
# first pass is short every set-up probe also makes one first pass in its
# fresh process.  Long passes (large-grid, measured-ducts) would cost too
# much of the run and are steadier alone.
COLD_PROBE_MAX_S = 5.0

END_TO_END_UNITS = {"pass_s": "s", "cold_pass_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "q1_err": "ratio"}
PER_LAYER_UNITS = {
    "kernel.calls": "count", "kernel.self_s": "s", "kernel.ms_per_call": "ms",
    "kernel.series_gap": "abs",
    "rg.q1.self_s": "s", "rg.qpt.self_s": "s",
    "rg.kernel_calls_per_q1": "count", "rg.kernel_calls_per_qpt": "count",
    "solver.calls": "count", "solver.self_s": "s", "solver.steps": "count",
    "solver.us_per_step": "us",
    "profiles.calls": "count", "profiles.points": "count",
    "profiles.self_s": "s", "profiles.us_per_point": "us",
    "profiles.build_s": "s",
    "quadrature.calls": "count", "quadrature.self_s": "s",
    "invariant.orbit.self_s": "s", "invariant.factor_ode.self_s": "s",
    "invariant.assemble.calls": "count", "invariant.assemble.self_s": "s",
    "solver.residual.self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "count",
    "cli.pool_speedup": "ratio", "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    """The program cannot be found or imported from this directory."""


def import_program():
    if not (SRC / "hornwave" / "__init__.py").is_file():
        raise SetupError(f"no hornwave package under {SRC}; run from the "
                         "repository root")
    sys.path.insert(0, str(SRC))
    import hornwave
    import hornwave.cli
    if not Path(hornwave.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported hornwave from {hornwave.__file__}, "
                         f"not from {SRC}")
    return hornwave


def probe(args, run_dir, index, cold):
    """A fresh-process set-up sample, with a cold pass if asked (probe.py)."""
    command = [sys.executable, str(HERE / "probe.py"), args.workload,
               str(args.seed), str(run_dir / f"probe-{index}")]
    command += ["--smoke"] * args.smoke + ["--cold"] * cold
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(hw, workload, jobs=None, tracer=None):
    """Wall time of one pass over the jobs, and each job's outcome."""
    for job in workload.jobs:
        shutil.rmtree(job.out, ignore_errors=True)
    outcomes = []
    start = time.perf_counter()
    for job in workload.jobs:
        argv = job.argv(jobs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = hw.cli.main(argv)
                else:
                    code = tracer.root(job.name, hw.cli.main, argv)
            except Exception:
                code = "exception"
                err.write(traceback.format_exc())
        outcomes.append((job, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outcomes


class Ledger:
    """Checks every job run and keeps what the metrics need."""

    def __init__(self, gaps):
        self.gaps = gaps
        self.attempted = 0
        self.failed = 0
        self.q1_err = 0.0
        self.residual = 0.0

    def record_probe(self, sample, index):
        self.attempted += sample["attempted"]
        self.failed += len(sample["failures"])
        for failure in sample["failures"]:
            print(f"FAILED job {failure} (cold pass, probe {index})")

    def check(self, outcomes, label):
        written = 0
        for job, code, stdout, stderr in outcomes:
            result = checks.check_job(job, code, stdout, stderr,
                                      self.gaps.get(job.name))
            self.attempted += 1
            written += result.bytes_written
            if result.problems:
                self.failed += 1
                print(f"FAILED job {job.name} ({label}): "
                      + "; ".join(result.problems))
            if result.q1_err is not None:
                self.q1_err = max(self.q1_err, result.q1_err)
            if result.residual is not None:
                self.residual = max(self.residual, result.residual)
        return written


class Placement:
    """Rotates a single-threaded workload's samples over the allowed CPUs.

    The two CPUs of the 2-core machine the baseline was measured on drift in
    speed independently, by about 10% over seconds (passes alternated between
    them showed it).  Pinning sample i to CPU (seed + i) mod k makes each
    run sample every CPU, not whichever one the scheduler keeps it on.
    Workloads that use the thread pool keep every CPU.
    """

    def __init__(self, workload, offset):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.rotate = max(job.jobs for job in workload.jobs) == 1
        self.offset = offset     # the seed, so one-pass runs alternate too

    def pin(self, index):
        if self.rotate:
            cpu = self.cpus[(self.offset + index) % len(self.cpus)]
            os.sched_setaffinity(0, {cpu})

    def release(self):
        os.sched_setaffinity(0, self.cpus)


def traced_metrics(hw, workload, ledger, warm_median, seed):
    """Two traced passes: the workload's job count, then the other one."""
    nominal = max(job.jobs for job in workload.jobs)
    other = 1 if nominal > 1 else 2
    passes = {}
    for jobs in (nominal, other):
        with tracing.Tracer(hw) as tracer:
            wall, outcomes = run_pass(hw, workload, jobs=jobs, tracer=tracer)
        written = ledger.check(outcomes, f"traced, --jobs {jobs}")
        passes[jobs] = (wall, tracer.spans, written)

    main = threading.main_thread().ident
    wall = {jobs: passes[jobs][0] for jobs in passes}
    gap = max(ledger.gaps.values(), default=0.0)
    metrics, tables = {}, {}
    for jobs, (_, spans, written) in passes.items():
        reduction = tracing.reduce_spans(spans, main)
        check_accounting(reduction)
        metrics[jobs] = tracing.layer_metrics(
            spans, reduction, series_gap=gap, bytes_written=written,
            pool_speedup=wall[1] / wall[2],
            overhead_frac=(wall[jobs] - warm_median) / warm_median)
        tables[jobs] = (tracing.layer_self_times(spans, reduction), reduction)

    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{workload.name}-{seed}.csv"
    tracing.write_spans(spans_file, passes[nominal][1] + passes[other][1])

    mismatched = [name for name in tracing.EXACT_COUNTS
                  if metrics[nominal][name] != metrics[other][name]]
    print_trace(nominal, other, wall, tables, metrics, mismatched, spans_file)
    return metrics[nominal], mismatched


def check_accounting(reduction):
    """Each thread's busy time must equal its spans' self plus wait time."""
    if min(reduction.self_s.values(), default=0.0) < -1e-9:
        raise RuntimeError("negative span self time")
    for label, busy, own, waited in reduction.threads:
        if abs(busy - own - waited) > 1e-6:
            raise RuntimeError(f"thread {label}: busy {busy} != self {own} "
                               f"+ wait {waited}")


def print_trace(nominal, other, wall, tables, metrics, mismatched, spans_file):
    for jobs in (nominal, other):
        layers, reduction = tables[jobs]
        own = sum(t[2] for t in reduction.threads)
        print(f"traced pass, --jobs {jobs}: wall {wall[jobs]:.4f} s")
        print("  layer        self_s      share of all threads' self time")
        for layer, value in layers.items():
            print(f"  {layer:<11} {value:10.4f}  {value / own:6.1%}")
        for label, busy_t, own, waited in reduction.threads:
            print(f"  thread {label:<7} busy {busy_t:.4f} s = self "
                  f"{own:.4f} s + waiting on other threads {waited:.4f} s")
    print(f"count repeat between --jobs {nominal} and --jobs {other}: "
          + ("MISMATCH in " + ", ".join(mismatched) if mismatched
             else "exact"))
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<28} {metrics[nominal][name]:.6g} {unit}")
    print(f"spans written to {spans_file}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced copy of the workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        hw = import_program()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(hw, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(hw, args, run_dir):
    workload = workloads.build(args.workload, run_dir, args.seed, args.smoke)
    gaps = {job.name: checks.series_gap(hw, job.gap)
            for job in workload.jobs if job.gap is not None}
    ledger = Ledger(gaps)
    placement = Placement(workload, args.seed)

    placement.pin(0)
    cold, outcomes = run_pass(hw, workload)
    ledger.check(outcomes, "cold pass")
    colds, setups = [cold], []
    for index in range(SETUP_SAMPLES):
        placement.pin(index + 1)      # the probe inherits the placement
        sample = probe(args, run_dir, index,
                       cold=cold < COLD_PROBE_MAX_S)
        setups.append(sample["import_s"] + sample["gen_s"])
        if sample["cold_s"] is not None:
            colds.append(sample["cold_s"])
        ledger.record_probe(sample, index)
    warm = []
    start = time.perf_counter()
    while True:
        placement.pin(len(warm))
        wall, outcomes = run_pass(hw, workload)
        ledger.check(outcomes, f"warm pass {len(warm) + 1}")
        warm.append(wall)
        if time.perf_counter() - start + statistics.median(warm) > args.seconds:
            break
    pass_s = statistics.median(warm)
    end_to_end = {
        "pass_s": pass_s,
        "cold_pass_s": statistics.median(colds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "q1_err": ledger.q1_err,
    }
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(workload.jobs)} jobs per pass, one caller, closed loop; "
          f"{len(warm)} warm passes in {time.perf_counter() - start:.2f} s")
    print("  warm passes (s): " + " ".join(f"{w:.4f}" for w in warm))
    print("  cold passes (s): " + " ".join(f"{c:.4f}" for c in colds))
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<12} {end_to_end[name]:.6g} {unit}")
    print(f"  {'failed_frac':<12} {ledger.failed / ledger.attempted:.6g} ratio"
          f" ({ledger.failed} of {ledger.attempted} jobs)")
    if any(job.invariant for job in workload.jobs):
        print(f"  {'inv_residual':<12} {ledger.residual:.6g} abs")
    if gaps:
        print(f"  {'series_gap':<12} {max(gaps.values()):.6g} abs")

    placement.release()
    mismatched = []
    if args.trace:
        metrics, mismatched = traced_metrics(hw, workload, ledger, pass_s,
                                             args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    print(json.dumps({
        "correct": ledger.failed == 0 and not mismatched,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
