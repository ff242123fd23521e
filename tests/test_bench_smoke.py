"""Smoke test of the benchmark harness: its output schema and answers, never its timings.

The cli workload starts one process per command, so CI runs it in a step of its own."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.mark.parametrize("workload", ["algebra", "germs", "sweep"])
def test_bench_workload_reports_every_metric(workload):
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(UNITS) == 7
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == UNITS
    assert result["correct"] is True
    assert result["failed"] == 0
