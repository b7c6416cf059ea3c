"""grindmon benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload crosswheel --seed 1 --seconds 25 --trace 0

Run from the root of a grindmon source tree; grindmon is imported from its
`src/`.  Workloads: crosswheel, lifetime-stream, cli-monitor (see README.md).
With --trace 0 the last line of output is the end-to-end result; with
--trace 1 it holds the per-layer metrics of a traced run.  The line before
it records the machine context.  Results and spans are also written under
bench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("crosswheel", "lifetime-stream", "cli-monitor")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
TIMEOUT_S = 170.0


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def worker(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    spawned = clock_gettime(CLOCK_MONOTONIC)
    proc = subprocess.Popen([*cmd, "--spawned", repr(spawned)], stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any grindmon process it started
        proc.communicate()
        raise SystemExit(f"{args.workload}: worker ran past {TIMEOUT_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload}: worker ({role}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "grindmon" / "__init__.py").is_file():
        print(f"no grindmon source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = clock_gettime(CLOCK_MONOTONIC) + TIMEOUT_S

    setups = [] if args.trace else [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUPS - 1)]
    run = worker(args, "run", deadline)
    if not args.trace:
        setups.append(run["metrics"]["setup_s"])
        run["metrics"]["setup_s"] = statistics.median(setups)
    units = declared_units(args.trace)
    if set(units) != set(run["metrics"]):
        raise SystemExit(f"metrics {sorted(run['metrics'])} differ from BENCHMARK.json's {sorted(units)}")
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "context": run["context"], "setups_s": setups, **result}
    if "traced_traces_per_s" in run:
        record["traced_traces_per_s"] = run["traced_traces_per_s"]
    results = BENCH / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"context": run["context"], "setups_s": setups}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
