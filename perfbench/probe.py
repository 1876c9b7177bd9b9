"""One fresh-process sample for a benchmark run; run.py starts it.

    python3 perfbench/probe.py WORKLOAD SEED DIR [--smoke] [--cold]

Times ``import hornwave.cli`` in a new interpreter, then the generation
of the workload's inputs into DIR, and with ``--cold`` one first pass
over the workload's jobs, whose outputs it checks.  Prints one JSON
object on standard output.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")
import hornwave.cli  # noqa: E402  the import every hornwave command pays

import_s = time.perf_counter() - start

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("dir", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cold", action="store_true")
    args = parser.parse_args()

    begin = time.perf_counter()
    workload = workloads.build(args.workload, args.dir, args.seed, args.smoke)
    sample = {"import_s": import_s, "gen_s": time.perf_counter() - begin,
              "cold_s": None, "attempted": 0, "failures": []}
    if args.cold:
        sample["cold_s"], outcomes = run.run_pass(hornwave, workload)
        for job, code, stdout, stderr in outcomes:
            sample["attempted"] += 1
            problems = checks.check_job(job, code, stdout, stderr).problems
            if problems:
                sample["failures"].append(f"{job.name}: " + "; ".join(problems))
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
