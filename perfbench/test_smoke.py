"""Smoke test of the benchmark on reduced copies of every workload.

    python3 -m pytest perfbench/test_smoke.py -q      (from the repo root)

Each workload runs once untraced and once traced.  The test checks that
the run passes its own output checks and that every metric named in
BENCHMARK.json prints, in the JSON line and in the readable lines, with
its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                       for line in text), f"{name} [{unit}] not printed"
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
