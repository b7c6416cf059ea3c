import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from grindmon import CampaignManifest, ManifestEntry, load_manifest, load_model, save_manifest
from grindmon.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Campaign plus fitted model produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    sim = runner.invoke(main, ["simulate", "--preset", "table2-counts",
                               "--out", str(root / "camp"), "--seed", "42"])
    assert sim.exit_code == 0, sim.output
    fit = runner.invoke(main, ["fit",
                               "--manifest", str(root / "camp" / "wheel1-manifest.csv"),
                               "--model", str(root / "model.json")])
    assert fit.exit_code == 0, fit.output
    return root


@pytest.fixture()
def runner():
    return CliRunner()


def test_simulate_reports_layout(tmp_path, runner):
    result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "c"), "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert "wrote 300 traces" in result.output
    assert "wheel3: 100 units, burn onset at 1400 parts" in result.output
    assert (tmp_path / "c" / "manifest.csv").exists()


def test_simulate_rejects_unknown_preset(tmp_path, runner):
    result = runner.invoke(main, ["simulate", "--preset", "bogus",
                                  "--out", str(tmp_path / "c")])
    assert result.exit_code == 2


def test_fit_summary_and_model_file(work, runner):
    result = runner.invoke(main, ["fit",
                                  "--manifest", str(work / "camp" / "wheel1-manifest.csv"),
                                  "--model", str(work / "model2.json")])
    assert result.exit_code == 0, result.output
    for line in ("observations: 100", "components: 1",
                 "class counts: NoBurn=80 Burn=20"):
        assert line in result.output
    assert "threshold:" in result.output and "warning limit:" in result.output
    bundle = load_model(work / "model2.json")
    bundle.validate()
    assert (work / "model2.json").read_bytes() == (work / "model.json").read_bytes()


def test_fit_rejects_unlabeled_rows(work, runner, tmp_path):
    manifest = load_manifest(work / "camp" / "wheel2-manifest.csv")
    stripped = CampaignManifest(
        tuple(ManifestEntry(e.trace_file, e.unit_id, e.wheel_id, e.parts_ground, None)
              for e in manifest.entries),
        base_dir=manifest.base_dir,
    )
    save_manifest(stripped, work / "camp" / "unlabeled-manifest.csv")
    result = runner.invoke(main, ["fit",
                                  "--manifest", str(work / "camp" / "unlabeled-manifest.csv"),
                                  "--model", str(tmp_path / "m.json")])
    assert result.exit_code == 2
    assert "row 1" in result.stderr and "burn_rank" in result.stderr


@pytest.mark.parametrize("override", [
    ["--components", "200"],
    ["--variance-target", "1.5"],
    ["--variance-target", "0"],
], ids=["components-200", "variance-target-1.5", "variance-target-0"])
def test_fit_rejects_component_overrun(work, runner, tmp_path, override):
    result = runner.invoke(main, ["fit",
                                  "--manifest", str(work / "camp" / "wheel1-manifest.csv"),
                                  "--model", str(tmp_path / "m.json"),
                                  *override])
    assert result.exit_code == 2
    assert "outside" in result.stderr
    assert not (tmp_path / "m.json").exists()


def test_fit_rejects_bad_priors(work, runner, tmp_path):
    base = ["fit", "--manifest", str(work / "camp" / "wheel1-manifest.csv"),
            "--model", str(tmp_path / "m.json")]
    assert runner.invoke(main, base + ["--priors", "lots"]).exit_code == 2
    assert runner.invoke(main, base + ["--priors", "0,-1"]).exit_code == 2
    assert runner.invoke(main, base + ["--priors", "equal"]).exit_code == 0


def test_predict_prints_table_and_confusion(work, runner):
    result = runner.invoke(main, ["predict", "--model", str(work / "model.json"),
                                  "--manifest", str(work / "camp" / "wheel2-manifest.csv")])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "unit_id,wheel_id,parts_ground,ld1,predicted,label"
    assert len([l for l in lines if l.startswith("wheel2-")]) == 69
    assert f"  NoBurn {66:5d} {0:5d}" in result.output
    assert f"  Burn   {0:5d} {3:5d}" in result.output
    assert "accuracy: 69/69" in result.output


def test_predict_writes_csv(work, runner, tmp_path):
    out = tmp_path / "pred.csv"
    result = runner.invoke(main, ["predict", "--model", str(work / "model.json"),
                                  "--manifest", str(work / "camp" / "wheel3-manifest.csv"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = out.read_text().splitlines()
    assert len(rows) == 51
    assert "accuracy: 50/50" in result.output


def test_predict_without_labels_skips_confusion(work, runner):
    result = runner.invoke(main, ["predict", "--model", str(work / "model.json"),
                                  "--manifest", str(work / "camp" / "unlabeled-manifest.csv")])
    assert result.exit_code == 0, result.output
    assert "confusion" not in result.output
    assert len(result.output.splitlines()) == 70  # header + 69 predictions


def test_predict_empty_manifest_is_input_error(work, runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("trace_file,unit_id,wheel_id,parts_ground,burn_rank\n")
    result = runner.invoke(main, ["predict", "--model", str(work / "model.json"),
                                  "--manifest", str(empty)])
    assert result.exit_code == 2


def trace_paths(work, wheel, max_parts=None):
    manifest = load_manifest(work / "camp" / f"{wheel}-manifest.csv")
    return [str(work / "camp" / e.trace_file) for e in manifest.entries
            if max_parts is None or e.parts_ground <= max_parts]


def test_monitor_healthy_run_exits_zero(work, runner):
    result = runner.invoke(main, ["monitor", "--model", str(work / "model.json")]
                           + trace_paths(work, "wheel1", max_parts=753))
    assert result.exit_code == 0, result.output
    events = [json.loads(l) for l in result.output.splitlines()]
    assert all(e["class"] == "NoBurn" and e["state"] == "Healthy" for e in events)
    assert not any(e["alert"] for e in events)


def test_monitor_full_lifetime_warns_then_burns(work, runner):
    result = runner.invoke(main, ["monitor", "--model", str(work / "model.json")]
                           + trace_paths(work, "wheel1"))
    assert result.exit_code == 4, result.output
    states = [json.loads(l)["state"] for l in result.output.splitlines()]
    assert "Warning" in states and "Burn" in states
    assert states.index("Warning") < states.index("Burn")
    first_warning = json.loads(result.output.splitlines()[states.index("Warning")])
    assert first_warning["alert"] is True
    assert "-p01147-" in first_warning["unit_id"]  # before the 1200-part onset


def test_monitor_warning_only_exits_three(work, runner):
    result = runner.invoke(main, ["monitor", "--model", str(work / "model.json")]
                           + trace_paths(work, "wheel1", max_parts=1147))
    assert result.exit_code == 3, result.output


def test_monitor_reads_paths_from_stdin(work, runner):
    paths = trace_paths(work, "wheel1", max_parts=753)
    direct = runner.invoke(main, ["monitor", "--model", str(work / "model.json")] + paths)
    piped = runner.invoke(main, ["monitor", "--model", str(work / "model.json")],
                          input="\n".join(paths) + "\n")
    assert piped.exit_code == 0
    assert piped.output == direct.output


def test_monitor_is_replay_deterministic(work, runner):
    args = ["monitor", "--model", str(work / "model.json")] + trace_paths(work, "wheel1")
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output


def test_monitor_bad_trace_aborts_with_path(work, runner):
    result = runner.invoke(main, ["monitor", "--model", str(work / "model.json"),
                                  str(work / "camp" / "nothere.csv")])
    assert result.exit_code == 2
    assert "nothere.csv" in result.stderr


def test_monitor_non_utf8_trace_aborts_with_path(work, runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"time_s,power_kw\n0.0,1.0\n0.05,\xff\n")
    result = runner.invoke(main, ["monitor", "--model", str(work / "model.json"), str(bad)])
    assert result.exit_code == 2
    assert "bad.csv" in result.stderr


@pytest.mark.parametrize("command", ["predict", "fit"])
def test_non_utf8_manifest_aborts_with_path(work, runner, tmp_path, command):
    bad = tmp_path / "bad-manifest.csv"
    bad.write_bytes(b"trace_file,unit_id,wheel_id,parts_ground,burn_rank\n"
                    b"a.csv,unit\xff,w,0,1\n")
    model = work / "model.json" if command == "predict" else tmp_path / "fitted.json"
    result = runner.invoke(main, [command, "--model", str(model), "--manifest", str(bad)])
    assert result.exit_code == 2
    assert "bad-manifest.csv" in result.stderr
    assert model.exists() == (command == "predict")


@pytest.mark.parametrize("command", ["predict", "fit"])
@pytest.mark.parametrize("rows", [
    "a.csv,u1,w,0\n",
    "a.csv,u1,w,10,1\nb.csv,u2,w,5,1\n",
], ids=["four-fields", "parts-decrease"])
def test_malformed_manifest_aborts_with_path(work, runner, tmp_path, command, rows):
    bad = tmp_path / "bad-manifest.csv"
    bad.write_text("trace_file,unit_id,wheel_id,parts_ground,burn_rank\n" + rows)
    model = work / "model.json" if command == "predict" else tmp_path / "fitted.json"
    result = runner.invoke(main, [command, "--model", str(model), "--manifest", str(bad)])
    assert result.exit_code == 2
    assert str(bad) in result.stderr
    assert model.exists() == (command == "predict")


def test_oversized_manifest_field_aborts_with_path(work, runner, tmp_path):
    bad = tmp_path / "huge-manifest.csv"
    bad.write_text("trace_file,unit_id,wheel_id,parts_ground,burn_rank\n"
                   "a.csv,u" + "x" * 131_072 + ",w,0,1\n")
    result = runner.invoke(main, ["predict", "--model", str(work / "model.json"),
                                  "--manifest", str(bad)])
    assert result.exit_code == 2, result.output
    assert str(bad) in result.stderr and "field larger than field limit" in result.stderr


def test_report_to_file_flags_wear_axis(work, runner, tmp_path):
    out = tmp_path / "scores.csv"
    result = runner.invoke(main, ["report", "--model", str(work / "model.json"),
                                  "--manifest", str(work / "camp" / "wheel1-manifest.csv"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "wear axis: pc_1" in result.output
    assert "ld1 |spearman vs order|" in result.output
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["obs_index", "unit_id", "wheel_id", "parts_ground", "label",
                      "predicted", "pc_1", "ld1", "threshold", "warning_limit"]
    assert len(out.read_text().splitlines()) == 101


def test_report_to_stdout_keeps_summary_on_stderr(work, runner):
    result = runner.invoke(main, ["report", "--model", str(work / "model.json"),
                                  "--manifest", str(work / "camp" / "wheel1-manifest.csv")])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0].startswith("obs_index,")
    assert "wear axis:" in result.stderr and "wear axis:" not in result.stdout


def test_report_single_observation(work, runner, tmp_path):
    manifest = load_manifest(work / "camp" / "wheel1-manifest.csv")
    single = CampaignManifest(manifest.entries[:1], base_dir=manifest.base_dir)
    save_manifest(single, work / "camp" / "single-manifest.csv")
    result = runner.invoke(main, ["report", "--model", str(work / "model.json"),
                                  "--manifest", str(work / "camp" / "single-manifest.csv")])
    assert result.exit_code == 0, result.output
    rows = result.stdout.splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[-2:] != ["", ""]  # threshold and limit still emitted


def test_console_script_is_installed(tmp_path):
    """The [project.scripts] entry installs a working `grindmon` command.

    This source tree is installed offline into `tmp_path`, so the test checks
    the tree itself rather than whatever `grindmon` happens to be on PATH.
    """
    target = tmp_path / "site"
    install = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-build-isolation", "--no-cache-dir", "--target", str(target), str(ROOT)],
        capture_output=True, text=True)
    assert install.returncode == 0, install.stdout + install.stderr
    proc = subprocess.run([str(target / "bin" / "grindmon"), "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(target)})
    assert proc.returncode == 0
    for sub in ("simulate", "fit", "predict", "monitor", "report"):
        assert sub in proc.stdout


def test_cli_import_does_not_load_scipy():
    """The command line imports only numpy and click; scipy's import cost is gone."""
    code = "import sys, grindmon.cli; print('scipy' in sys.modules)"
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
