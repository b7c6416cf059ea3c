"""Smoke run of every benchmark workload: one short, checked run each.

Runs `bench/worker.py` as the benchmark does, for about 0.1 s of steps,
and requires the run to pass the worker's own output checks.  One traced
run through `bench/run.py` checks that the monitor path still reports every
per-layer metric `BENCHMARK.json` declares.  The benchmark keeps its scratch
files under the git-ignored `bench/_work/`.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(workload):
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--spawned", repr(spawned)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]


def test_a_traced_lifetime_stream_run_reports_every_per_layer_metric():
    """The tracer times public functions by name, so observe must keep calling them."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "lifetime-stream",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
