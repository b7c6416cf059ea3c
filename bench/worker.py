"""One benchmark process: a workload's set-up, then its timed closed loop.

Started by run.py, which passes the monotonic clock reading taken just
before it started this process, so set-up time covers interpreter start,
`import grindmon` and the workload's own set-up.  With `--role setup` the
process stops after set-up.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import grindmon  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def now() -> float:
    return clock_gettime(CLOCK_MONOTONIC)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")


class Crosswheel:
    """Cross-wheel batch from CSV: fit on wheel 1, predict wheels 2 and 3.

    One step loads the three manifests, fits, saves and reloads the model,
    and scores wheels 2 and 3: 219 traces read from CSV.
    """

    traces_per_step = 219

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.preset = grindmon.table2_preset(seed)
        grindmon.generate_campaign(self.preset, workdir)
        self.model_path = workdir / "model.json"

    def prepare_checks(self) -> None:
        self.ref = reference.fit_manifest(self.dir / "wheel1-manifest.csv")
        self.ref_ld1, self.expected, self.onset = {}, {}, {}
        for wheel in ("wheel2", "wheel3"):
            X, _ = reference.matrix_from_manifest(self.dir / f"{wheel}-manifest.csv")
            self.ref_ld1[wheel] = self.ref.ld1(X)
            scenario = self.preset.wheel(wheel)
            parts = [p for p, count in scenario.checkpoints for _ in range(count)]
            self.onset[wheel] = scenario.burn_onset_parts
            self.expected[wheel] = checks.expected_confusion(parts, scenario.burn_onset_parts)

    def step(self, i: int):
        m1, m2, m3 = (grindmon.load_manifest(self.dir / f"wheel{w}-manifest.csv") for w in (1, 2, 3))
        bundle, _ = grindmon.fit_bundle(m1)
        grindmon.save_model(bundle, self.model_path)
        loaded = grindmon.load_model(self.model_path)
        return bundle, loaded, {
            "wheel2": (m2, grindmon.predict_campaign(loaded, m2)),
            "wheel3": (m3, grindmon.predict_campaign(loaded, m3)),
        }

    def check(self, i: int, out) -> list[str]:
        bundle, loaded, predictions = out
        confusion, ld1 = {}, {}
        for wheel, (manifest, verdicts) in predictions.items():
            counts = [[0, 0], [0, 0]]
            for entry, verdict in zip(manifest.entries, verdicts):
                counts[entry.parts_ground >= self.onset[wheel]][verdict.label == "Burn"] += 1
            confusion[wheel] = counts
            ld1[wheel] = [v.ld1 for v in verdicts]
        return checks.check_crosswheel(
            {
                "loadings": bundle.pca.loadings,
                "threshold": bundle.lda.threshold,
                "warning_limit": loaded.warning_limit(),
                "ld1": ld1,
                "confusion": confusion,
                "saved": self.model_path.read_bytes(),
                "reserialized": grindmon.model_to_json(loaded).encode("utf-8"),
            },
            self.ref, self.ref_ld1, self.expected,
        )


class LifetimeStream:
    """A dense lifetime of a wheel the model never saw, one observe per step.

    Set-up fits on wheel 1 of the default preset and generates wheel 2's
    trace at every wear level from 0 to 1999 parts (capacity is 1400).  A
    lifetime (round) passes one MonitorState through ROUND observations in
    wear order, REPEAT per wear level; a run is whole rounds.  Step times go
    into arrays filled at set-up, so the process's memory does not grow with
    the number of steps a run manages; the percentiles come from the first
    KEPT_ROUNDS rounds.
    """

    traces_per_step = 1
    POOL_PARTS = 2000
    REPEAT = 10
    ROUND = POOL_PARTS * REPEAT
    KEPT_ROUNDS = 25

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        preset = grindmon.default_preset(seed)
        wheel1 = preset.wheel("wheel1")
        grindmon.generate_campaign(grindmon.ScenarioPreset(preset.name, (wheel1,)), workdir)
        manifest = grindmon.load_manifest(workdir / "wheel1-manifest.csv")
        self.bundle, _ = grindmon.fit_bundle(manifest)
        self.wheel = preset.wheel("wheel2")
        self.pool = [grindmon.generate_trace(self.wheel, p, 0) for p in range(self.POOL_PARTS)]
        self.history_len = 0
        self.round_times = np.full(self.ROUND, np.nan)
        self.kept_times = np.full(self.ROUND * self.KEPT_ROUNDS, np.nan)

    def prepare_checks(self) -> None:
        self.ref = reference.fit_manifest(self.dir / "wheel1-manifest.csv")
        X = np.array([reference.resample(t.times, t.powers) for t in self.pool])
        self.ref_ld1 = np.repeat(self.ref.ld1(X), self.REPEAT)
        self.parts = np.repeat(np.arange(self.POOL_PARTS), self.REPEAT)

    def lifetime(self, failures: list):
        """One round; leaves step times in round_times; returns (events, wall seconds)."""
        observe, bundle, pool, repeat = grindmon.observe, self.bundle, self.pool, self.REPEAT
        times = self.round_times
        state = grindmon.start_monitor(bundle)
        events = []
        start = now()
        for i in range(self.ROUND):
            t0 = now()
            try:
                event, state = observe(state, bundle, pool[i // repeat])
            except Exception:
                failures.append(traceback.format_exc())
                event = None
            times[i] = now() - t0
            events.append(event)
        wall = now() - start
        self.history_len = len(state.history)
        return events, wall

    def check(self, events) -> list[str]:
        if any(e is None for e in events):
            return []  # failed observations are counted as failed, not checked
        rows = [(e.prev_state, e.state, e.alert, e.post_failure, e.ld1) for e in events]
        return checks.check_lifetime(rows, self.parts, self.ref_ld1, self.wheel.burn_onset_parts,
                                     self.ref.warning_limit, self.ref.threshold)


class CliMonitor:
    """`grindmon monitor --model M trace.csv` as a process per trace.

    Traces are those of wheels 2 and 3 of the table2-counts preset in wear
    order (119), cycled; the next process starts when the last one exits.
    """

    traces_per_step = 1

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        grindmon.generate_campaign(grindmon.table2_preset(seed), workdir)
        manifest = grindmon.load_manifest(workdir / "wheel1-manifest.csv")
        bundle, _ = grindmon.fit_bundle(manifest)
        self.model_path = workdir / "model.json"
        grindmon.save_model(bundle, self.model_path)
        self.env = child_env()
        self.spans: Path | None = None

    def prepare_checks(self) -> None:
        self.ref = reference.fit_manifest(self.dir / "wheel1-manifest.csv")
        rows = [r for w in ("wheel2", "wheel3") for r in reference.read_manifest(self.dir / f"{w}-manifest.csv")]
        self.paths = [str(p) for p, _ in rows]
        self.ref_ld1 = self.ref.ld1(np.array([reference.resample(*reference.read_trace(p)) for p in self.paths]))

    def step(self, i: int):
        args = ["monitor", "--model", str(self.model_path), self.paths[i % len(self.paths)]]
        if self.spans is None:
            cmd = [sys.executable, "-m", "grindmon.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(self.spans), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)
        if proc.returncode not in (0, 3, 4):
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.stdout, proc.returncode

    def check(self, i: int, out) -> list[str]:
        k = i % len(self.paths)
        return checks.check_cli(out[0], out[1], float(self.ref_ld1[k]), self.ref.threshold, self.ref.warning_limit)


WORKLOADS = {"crosswheel": Crosswheel, "lifetime-stream": LifetimeStream, "cli-monitor": CliMonitor}


def run_steps(wl, seconds: float, tracer: Tracer | None):
    """Closed loop of whole steps until the timed time reaches `seconds`."""
    durations, failures, problems = [], [], []
    timed = 0.0
    i = 0
    while timed < seconds:
        t0 = now()
        try:
            out = wl.step(i)
        except Exception:
            out = None
            failures.append(traceback.format_exc())
        durations.append(now() - t0)
        timed += durations[-1]
        if out is not None:
            problems += wl.check(i, out)
        spans = getattr(wl, "spans", None)
        if tracer is not None and spans is not None and spans.exists():
            with np.load(spans) as z:
                tracer.extend(z["names"], z["name_id"], z["parent"], z["start"], z["end"])
            spans.unlink()
        i += 1
    return durations, len(durations), timed, failures, problems


def run_lifetimes(wl: LifetimeStream, seconds: float):
    """Whole rounds until their timed time reaches `seconds`."""
    failures, problems = [], []
    wall, rounds = 0.0, 0
    while wall < seconds:
        events, round_wall = wl.lifetime(failures)
        if rounds < wl.KEPT_ROUNDS:
            wl.kept_times[rounds * wl.ROUND:(rounds + 1) * wl.ROUND] = wl.round_times
        rounds += 1
        wall += round_wall
        problems += wl.check(events)
    kept = wl.kept_times[:min(rounds, wl.KEPT_ROUNDS) * wl.ROUND]
    return kept, rounds * wl.ROUND, wall, failures, problems


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read through numpy's bundled library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_context(seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "seed": seed,
    }


# --- traced run: per-layer metrics ---

PER_CALL = {  # metric: (span, seconds -> unit)
    "traces.load_trace_ms": ("traces.load_trace", 1e3),
    "traces.parse_trace_csv_ms": ("traces.parse_trace_csv", 1e3),
    "traces.resample_us": ("traces.resample", 1e6),
    "traces.serialize_trace_csv_ms": ("traces.serialize_trace_csv", 1e3),
    "pca.fit_pca_ms": ("pca.fit_pca", 1e3),
    "pca.project_us": ("pca.project", 1e6),
    "lda.fit_lda_ms": ("lda.fit_lda", 1e3),
    "lda.classify_us": ("lda.classify", 1e6),
    "monitor.save_model_ms": ("monitor.save_model", 1e3),
    "monitor.load_model_ms": ("monitor.load_model", 1e3),
    "simulate.generate_trace_us": ("simulate.generate_trace", 1e6),
    "simulate.generate_campaign_s": ("simulate.generate_campaign", 1.0),
}
PER_STEP_SELF_MS = {
    "traces.build_matrix_self_ms": "traces.build_matrix",
    "pipeline.fit_bundle_self_ms": "pipeline.fit_bundle",
    "pipeline.predict_campaign_self_ms": "pipeline.predict_campaign",
}
PER_STEP_CALLS = {
    "traces.load_trace_calls": "traces.load_trace",
    "lda.classify_calls": "lda.classify",
}
PROBE_CHAIN = 2000  # observations in the probe's monitor chain
EDGE = 1000  # observations at each end of a chain for the first/last observe metrics


def probe(wl, tracer: Tracer, workdir: Path) -> tuple[int, int, int]:
    """Call the public functions the workload's loop does not reach.

    crosswheel and cli-monitor observe nothing in-process, so a monitor chain
    of PROBE_CHAIN observations over wheels 2 and 3 gives the observe
    metrics; lifetime-stream never saves or loads a model, so it does so 20
    times.  Returns the span range of the observe chain, its length, and the
    chain's final history length.
    """
    if isinstance(wl, LifetimeStream):
        path = workdir / "model.json"
        for _ in range(20):
            grindmon.save_model(wl.bundle, path)
            grindmon.load_model(path)
        return 0, 0, 0
    manifests = [grindmon.load_manifest(workdir / f"wheel{w}-manifest.csv") for w in (2, 3)]
    traces = [grindmon.load_trace(workdir / e.trace_file, e) for m in manifests for e in m.entries]
    bundle = grindmon.load_model(wl.model_path)
    state = grindmon.start_monitor(bundle)
    lo = len(tracer)
    for i in range(PROBE_CHAIN):
        _, state = grindmon.observe(state, bundle, traces[i % len(traces)])
    return lo, len(tracer), len(state.history)


def cli_layer(model_path: Path, trace_path: Path) -> dict:
    """cli layer: interpreter floor, import costs and one in-process monitor command."""
    import grindmon.cli

    env = child_env()

    def wall(args) -> float:
        t0 = now()
        subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
        return now() - t0

    interpreter = statistics.median(wall(["-c", "pass"]) for _ in range(5))
    imports = statistics.median(wall(["-c", "import grindmon.cli"]) for _ in range(3))
    packages = {"scipy": [], "numpy": [], "click": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import grindmon.cli"],
                              env=env, check=True, capture_output=True, text=True)
        for pkg, total in import_times(proc.stderr).items():
            packages[pkg].append(total)
    commands = []
    args = ["monitor", "--model", str(model_path), str(trace_path)]
    for _ in range(20):
        t0 = now()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                grindmon.cli.main(args=args, prog_name="grindmon", standalone_mode=False)
            except SystemExit:
                pass
        commands.append(now() - t0)
    out = {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (imports - interpreter) * 1e3,
        "cli.command_ms": statistics.median(commands) * 1e3,
    }
    for pkg, totals in packages.items():
        out[f"cli.import_{pkg}_ms"] = statistics.median(totals) / 1e3
    return out


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative microseconds per package from `python -X importtime` output.

    A package's time is the sum of the cumulative times of its outermost
    modules, those with no module of the same package above them.
    """
    totals = {"scipy": 0.0, "numpy": 0.0, "click": 0.0}
    stack: list[tuple[int, str]] = []  # (depth, package) of the lines nested around the current one
    for line in reversed(stderr.splitlines()):  # parents are printed after their children
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        module = name.strip()
        package = module.split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if package in totals and all(p != package for _, p in stack):
            totals[package] += float(cumulative)
        stack.append((depth, package))
    return totals


def layer_metrics(tracer, phases, n_steps, chain, history_len) -> dict:
    """Per-layer metrics from the spans; phases maps loop/setup/probe to span ranges."""
    _, _, _, start, end = tracer.arrays()
    dur = end - start
    self_t = tracer.self_times()
    out = {}
    for metric, (span, scale) in PER_CALL.items():
        for lo, hi in (phases["loop"], phases["setup"], phases["probe"]):
            idx = tracer.select(span, lo, hi)
            if idx.size:
                out[metric] = float(np.median(dur[idx])) * scale
                break
    lo, hi = phases["loop"]
    for metric, span in PER_STEP_SELF_MS.items():
        out[metric] = float(self_t[tracer.select(span, lo, hi)].sum()) / n_steps * 1e3
    for metric, span in PER_STEP_CALLS.items():
        out[metric] = tracer.select(span, lo, hi).size / n_steps
    lo, hi, length = chain
    obs = self_t[tracer.select("monitor.observe", lo, hi)]
    pos = np.arange(obs.size) % length
    out["monitor.observe_self_us_first"] = float(np.median(obs[pos < EDGE])) * 1e6
    out["monitor.observe_self_us_last"] = float(np.median(obs[pos >= length - EDGE])) * 1e6
    out["monitor.history_len"] = history_len
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    ap.add_argument("--spawned", required=True, type=float,
                    help="monotonic clock reading taken just before this process was started")
    args = ap.parse_args()

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer)
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = now() - args.spawned
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        loop_start = len(tracer) if tracer else 0

        wl.prepare_checks()
        if tracer is not None and isinstance(wl, CliMonitor):
            wl.spans = workdir / "child-spans.npz"
        if isinstance(wl, LifetimeStream):
            durations, attempted, wall, failures, problems = run_lifetimes(wl, args.seconds)
        else:
            durations, attempted, wall, failures, problems = run_steps(wl, args.seconds, tracer)
        if isinstance(wl, CliMonitor):
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for failure in failures[:3]:
            print(failure, file=sys.stderr)
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)

        step_ms = np.asarray(durations) * 1e3
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": len(failures),
            "context": machine_context(args.seed),
        }
        if tracer is None:
            result["metrics"] = {
                "setup_s": setup_s,
                "step_p50_ms": float(np.percentile(step_ms, 50)),
                "step_p90_ms": float(np.percentile(step_ms, 90)),
                "traces_per_s": attempted * wl.traces_per_step / wall,
                "peak_rss_mb": peak_kb / 1024.0,
            }
        else:
            loop_end = len(tracer)
            probe_lo, probe_hi, probe_history = probe(wl, tracer, workdir)
            phases = {"setup": (0, loop_start), "loop": (loop_start, loop_end), "probe": (loop_end, len(tracer))}
            if isinstance(wl, LifetimeStream):
                chain, history_len = (loop_start, loop_end, wl.ROUND), wl.history_len
                model_path = workdir / "model.json"
            else:
                chain, history_len = (probe_lo, probe_hi, PROBE_CHAIN), probe_history
                model_path = wl.model_path
            metrics = layer_metrics(tracer, phases, attempted, chain, history_len)
            trace_csv = next((workdir / "wheel1").glob("*.csv"))
            metrics.update(cli_layer(model_path, trace_csv))
            result["metrics"] = metrics
            result["traced_traces_per_s"] = attempted * wl.traces_per_step / wall
            tracer.save(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz",
                        phases=np.array([phases["setup"], phases["loop"], phases["probe"]]))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
