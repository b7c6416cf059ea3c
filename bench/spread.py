"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload crosswheel --seconds 25 --seeds 1 2 3 4 5 6 7 8 9 10

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median.  Run from the root of the source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--seeds", required=True, nargs="+", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    failed = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        failed.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share per run: {sorted(set(failed))}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'(q3-q1)/median':>15s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med if med else 0.0:15.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
