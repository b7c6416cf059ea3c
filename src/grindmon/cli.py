"""Command line front end: simulate, fit, predict, monitor, report.

Exit codes are a stable contract: 0 success (or final monitor state
Healthy), 2 input or validation error, 3 final state Warning, 4 final
state Burn.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click

from .errors import GrindmonError
from .lda import DEFAULT_RIDGE
from .monitor import (
    BURN,
    WARNING,
    MonitorConfig,
    format_event,
    load_model,
    observe,
    save_model,
    start_monitor,
)
from .pipeline import (
    build_report,
    confusion_matrix,
    fit_bundle,
    predict_campaign,
    report_to_csv,
)
from .simulate import PRESETS, generate_campaign, make_preset
from .traces import DEFAULT_RESAMPLE_LENGTH, _csv_text, load_manifest, load_trace

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_WARNING = 3
EXIT_BURN = 4


class _Commands(click.Group):
    """Commands whose bad input prints `error: ...` and calls sys.exit(EXIT_INPUT).

    click's own usage errors stay click's.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (GrindmonError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)


_model_option = click.option("--model", "model_path", required=True,
                             type=click.Path(exists=True, dir_okay=False))
_manifest_option = click.option("--manifest", "manifest_path", required=True,
                                type=click.Path(exists=True, dir_okay=False))


def _write_table(text: str, out_path, what: str) -> None:
    """A CSV table to stdout, or to out_path with a note on stdout naming `what`."""
    if out_path is None:
        click.echo(text, nl=False)
    else:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"{what} written to {out_path}")


def _parse_priors(text: str) -> tuple[float, float] | None:
    text = text.strip().lower()
    if text == "proportional":
        return None
    if text == "equal":
        return (0.5, 0.5)
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(
            "priors must be 'proportional', 'equal', or 'p_noburn,p_burn'"
        )
    return (float(parts[0]), float(parts[1]))


@click.group(cls=_Commands)
def main():
    """Grinding-burn detection from spindle power traces."""


@main.command()
@click.option("--preset", "preset_name", default="default", show_default=True,
              type=click.Choice(sorted(PRESETS)))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False), help="Campaign output directory.")
@click.option("--seed", default=42, show_default=True, type=int)
def simulate(preset_name: str, out_dir: str, seed: int):
    """Generate a synthetic campaign: trace CSVs plus manifests."""
    preset = make_preset(preset_name, seed)
    manifest = generate_campaign(preset, out_dir)
    click.echo(f"wrote {len(manifest.entries)} traces under {out_dir}")
    for wheel in preset.wheels:
        n_units = sum(count for _, count in wheel.checkpoints)
        click.echo(
            f"  {wheel.wheel_id}: {n_units} units, "
            f"burn onset at {wheel.burn_onset_parts} parts"
        )
    click.echo(f"combined manifest: {Path(out_dir) / 'manifest.csv'}")


@main.command()
@_manifest_option
@click.option("--model", "model_path", required=True,
              type=click.Path(dir_okay=False), help="Output model file.")
@click.option("--resample-length", default=DEFAULT_RESAMPLE_LENGTH, show_default=True, type=int)
@click.option("--components", type=int, default=None,
              help="Fixed PC count; default picks by variance target.")
@click.option("--variance-target", type=float, default=None,
              help="Cumulative explained-variance target in (0, 1].")
@click.option("--priors", default="proportional", show_default=True,
              help="'proportional', 'equal', or 'p_noburn,p_burn'.")
@click.option("--ridge", default=DEFAULT_RIDGE, show_default=True, type=float)
@click.option("--warning-fraction", default=MonitorConfig.warning_fraction, show_default=True,
              type=float)
@click.option("--hold-count", default=MonitorConfig.hold_count, show_default=True, type=int)
def fit(manifest_path, model_path, resample_length, components, variance_target,
        priors, ridge, warning_fraction, hold_count):
    """Fit the burn classifier on a fully labeled campaign."""
    priors = _parse_priors(priors)
    manifest = load_manifest(manifest_path)
    bundle, summary = fit_bundle(
        manifest,
        resample_length=resample_length,
        components=components,
        variance_target=variance_target,
        priors=priors,
        ridge=ridge,
        monitor_config=MonitorConfig(
            warning_fraction=warning_fraction,
            hold_count=hold_count,
        ),
    )
    save_model(bundle, model_path)
    click.echo(f"observations: {summary.n_observations}")
    click.echo(f"samples per trace: {summary.n_samples_per_trace}")
    click.echo(f"components: {summary.n_components}")
    click.echo(f"cumulative explained variance: {summary.cumulative_variance:.6f}")
    click.echo(f"class counts: NoBurn={summary.n_noburn} Burn={summary.n_burn}")
    click.echo(f"threshold: {summary.threshold!r}")
    click.echo(f"warning limit: {summary.warning_limit!r}")
    click.echo(f"model written to {model_path}")


def _predictions_csv(manifest, verdicts) -> str:
    """One CSV row per unit; an id holding a comma or a quote is quoted."""
    return _csv_text(
        ["unit_id", "wheel_id", "parts_ground", "ld1", "predicted", "label"],
        ((e.unit_id, e.wheel_id, e.parts_ground, v.ld1, v.label, e.label)
         for e, v in zip(manifest.entries, verdicts)))


def _echo_confusion(counts) -> None:
    click.echo("confusion matrix (rows actual, cols predicted; order NoBurn, Burn):")
    click.echo(f"  NoBurn {counts[0, 0]:5d} {counts[0, 1]:5d}")
    click.echo(f"  Burn   {counts[1, 0]:5d} {counts[1, 1]:5d}")
    correct = int(counts[0, 0] + counts[1, 1])
    click.echo(f"accuracy: {correct}/{int(counts.sum())}")


@main.command()
@_model_option
@_manifest_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the predictions table here instead of stdout.")
def predict(model_path, manifest_path, out_path):
    """Classify every unit in a campaign against a fitted model."""
    bundle = load_model(model_path)
    manifest = load_manifest(manifest_path)
    verdicts = predict_campaign(bundle, manifest)
    _write_table(_predictions_csv(manifest, verdicts), out_path, "predictions")
    counts = confusion_matrix(verdicts, manifest.labels())
    if counts is not None:
        _echo_confusion(counts)


@main.command()
@_model_option
@click.argument("traces", nargs=-1, type=click.Path(dir_okay=False))
def monitor(model_path, traces):
    """Stream traces through the three-state health monitor.

    Trace file paths come as arguments, or line-delimited on stdin when
    no arguments are given.  Emits one JSON event per trace; the exit
    code reflects the final state (0 Healthy, 3 Warning, 4 Burn).
    """
    bundle = load_model(model_path)
    state = start_monitor(bundle)
    paths = list(traces)
    if not paths:
        paths = [line.strip() for line in sys.stdin if line.strip()]
    for path in paths:
        trace = load_trace(path)
        if not trace.unit_id:
            trace = dataclasses.replace(trace, unit_id=Path(path).stem)
        event, state = observe(state, bundle, trace)
        click.echo(format_event(event))
    if state.state == BURN:
        sys.exit(EXIT_BURN)
    if state.state == WARNING:
        sys.exit(EXIT_WARNING)


@main.command()
@_model_option
@_manifest_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the score table here instead of stdout.")
def report(model_path, manifest_path, out_path):
    """Tabulate PC scores and LD1 per unit, flagging the wear axis."""
    bundle = load_model(model_path)
    manifest = load_manifest(manifest_path)
    rep = build_report(bundle, manifest)
    _write_table(report_to_csv(rep), out_path, "score table")
    to_stderr = out_path is None  # keep stdout a clean CSV
    for j in range(rep.n_components):
        click.echo(f"pc_{j + 1} |spearman vs order| = {rep.pc_spearman[j]:.4f}",
                   err=to_stderr)
    click.echo(f"ld1 |spearman vs order| = {rep.ld1_spearman:.4f}", err=to_stderr)
    click.echo(f"wear axis: pc_{rep.wear_axis}", err=to_stderr)
    click.echo(f"threshold = {rep.threshold!r}", err=to_stderr)
    click.echo(f"warning_limit = {rep.warning_limit!r}", err=to_stderr)


if __name__ == "__main__":
    main()
