"""Golden outputs: the bytes that "the same behaviour" means, as SHA-256 digests.

Each output below is regenerated and hashed, and compared with
`golden.json`, keyed by numpy's major version; a mismatch names every
output that changed.  The wheel-1 model is the same on both presets (their
wheel 1 records the same units), so one model per seed covers both.  On a
numpy major with no entry the test skips, and its reason holds the digests
it computed.  A change meant to alter an output updates its digest:

    PYTHONPATH=src python tests/test_golden.py   # prints this major's digests
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from grindmon import (
    ScenarioPreset,
    default_preset,
    fit_bundle,
    generate_campaign,
    generate_trace,
    load_manifest,
    model_to_json,
    observe,
    start_monitor,
    table2_preset,
)
from grindmon.cli import main
from test_cli import make_runner

GOLDEN = Path(__file__).with_name("golden.json")
LIFETIME_PARTS = 2000  # lifetime-stream's round: wheel 2 at every wear level,
LIFETIME_REPEAT = 10   # each trace observed 10 times, 20,000 observations


def _campaign_bytes(out: Path) -> bytes:
    """Every manifest and every trace file they list, each under its relative name."""
    names = ["manifest.csv", "wheel1-manifest.csv", "wheel2-manifest.csv", "wheel3-manifest.csv"]
    names += [e.trace_file for e in load_manifest(out / "manifest.csv").entries]
    return b"".join(name.encode() + b"\n" + (out / name).read_bytes() for name in names)


def _wheel1_model(seed: int, out: Path) -> str:
    wheel1 = default_preset(seed).wheel("wheel1")
    generate_campaign(ScenarioPreset("wheel1", (wheel1,)), out)
    return model_to_json(fit_bundle(load_manifest(out / "wheel1-manifest.csv"))[0])


def golden_outputs(root: Path) -> dict[str, bytes]:
    """Each golden output's bytes, regenerated under root."""
    outputs = {}
    for seed in (0, 7):
        outputs[f"model wheel1 seed {seed}"] = _wheel1_model(seed, root / f"seed{seed}").encode()
    camp = root / "seed42"
    generate_campaign(table2_preset(42), camp)
    outputs["campaign table2-counts seed 42"] = _campaign_bytes(camp)
    bundle = fit_bundle(load_manifest(camp / "wheel1-manifest.csv"))[0]
    outputs["model wheel1 seed 42"] = model_to_json(bundle).encode()
    model = root / "model.json"
    model.write_text(model_to_json(bundle), encoding="utf-8")

    runner = make_runner()
    paths = []
    for wheel in ("wheel2", "wheel3"):
        manifest = camp / f"{wheel}-manifest.csv"
        for command in ("predict", "report"):
            result = runner.invoke(main, [command, "--model", str(model), "--manifest", str(manifest)])
            assert result.exit_code == 0, result.output
            outputs[f"{command} {wheel} stdout"] = result.stdout.encode()
        paths += [str(camp / e.trace_file) for e in load_manifest(manifest).entries]
    result = runner.invoke(main, ["monitor", "--model", str(model)], input="\n".join(paths) + "\n")
    outputs["monitor wheel2+wheel3 stdout and exit code"] = (
        result.stdout + f"exit {result.exit_code}\n").encode()

    wheel2 = default_preset(42).wheel("wheel2")
    state = start_monitor(bundle)
    lines = []
    for parts in range(LIFETIME_PARTS):
        trace = generate_trace(wheel2, parts, 0)
        for _ in range(LIFETIME_REPEAT):
            event, state = observe(state, bundle, trace)
            lines.append(f"{event.ld1.hex()} {event.state}\n")
    outputs["lifetime-stream round ld1 and state"] = "".join(lines).encode()
    return outputs


def golden_digests(root: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in golden_outputs(root).items()}


def _numpy_major() -> str:
    return np.__version__.split(".")[0]


def test_outputs_match_their_golden_digests(tmp_path):
    digests = golden_digests(tmp_path)
    recorded = json.loads(GOLDEN.read_text()).get(_numpy_major())
    if recorded is None:
        pytest.skip(f"no golden digests for numpy {np.__version__}; computed: {json.dumps(digests)}")
    changed = sorted(name for name in recorded.keys() | digests.keys()
                     if recorded.get(name) != digests.get(name))
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump({_numpy_major(): golden_digests(Path(tmp))}, sys.stdout, indent=2, sort_keys=True)
        print()
