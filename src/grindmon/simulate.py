"""Synthetic grinding campaigns with a controllable, deterministic wear trend.

Traces are a flat baseline plus one raised-cosine power bump per cut, with
bump amplitude growing linearly in cumulative parts ground (capped at 1.5x
nominal life) and optional additive Gaussian noise.  Randomness is counter
based: every trace is keyed on (seed, wheel, parts, unit), so regeneration
is reproducible file-for-file on any platform.

The bundled presets mirror the three-wheel experiment layout this package
is tested against: five checkpoint batches per wheel with burning starting
late in life.  Wheel 3's onset is not documented in the source campaign
records; the presets place it at 1400 parts.

Known defect: power depends on wear_capacity_parts, which every default
wheel shares at 1400, and not on burn_onset_parts, so a wheel's traces do
not reflect its own onset.  A dense replay (one trace per part, 0..1999)
against a wheel-1 model enters Burn at 1229-1232 parts on every default
wheel, before wheel 3's labeled onset of 1400; the preset checkpoints jump
past that region, which is why the monitor's lifetime gate still passes.
Fixing it changes the simulated data, so it waits for a change that may
move the frozen campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .traces import (
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    save_manifest,
    serialize_trace_csv,
)

SAMPLE_PERIOD_S = 0.05  # 50 ms power sampling
WEAR_RATIO_CAP = 1.5    # amplitude growth saturates past 1.5x nominal life
BUMP_HALF_WIDTH_FRACTION = 0.4  # of the cut spacing; keeps bumps disjoint


@dataclass(frozen=True)
class WheelScenario:
    """Generator settings for one wheel's lifetime campaign.

    checkpoints lists (parts_ground, units_recorded) batches in wear order.
    Peak amplitude at p parts is peak_kw_new * (1 + wear_gain * min(p /
    wear_capacity_parts, 1.5)); units at or past burn_onset_parts are
    labeled burn rank 2, earlier ones rank 1.
    """

    wheel_id: str
    checkpoints: tuple[tuple[int, int], ...]
    burn_onset_parts: int
    trace_length_s: float = 25.6
    baseline_kw: float = 0.5
    n_cuts: int = 8
    peak_kw_new: float = 2.0
    wear_gain: float = 0.5
    wear_capacity_parts: int = 1400
    noise_kw: float = 0.02
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(
            self, "checkpoints", tuple((int(p), int(u)) for p, u in self.checkpoints)
        )
        parts = [p for p, _ in self.checkpoints]
        if any(b <= a for a, b in zip(parts, parts[1:])):
            raise ValueError("checkpoint parts_ground values must be strictly ascending")
        if any(p < 0 or u < 0 for p, u in self.checkpoints):
            raise ValueError("checkpoint parts and unit counts must be non-negative")
        if self.burn_onset_parts < 1:
            raise ValueError("burn_onset_parts must be positive")
        if self.trace_length_s < SAMPLE_PERIOD_S:
            raise ValueError("trace_length_s too short for two samples")
        if self.baseline_kw <= 0 or self.peak_kw_new <= 0:
            raise ValueError("power levels must be positive")
        if self.wear_gain < 0 or self.noise_kw < 0:
            raise ValueError("wear_gain and noise_kw must be non-negative")
        if self.n_cuts < 1 or self.wear_capacity_parts < 1:
            raise ValueError("n_cuts and wear_capacity_parts must be positive")

    @property
    def n_samples(self) -> int:
        return int(round(self.trace_length_s / SAMPLE_PERIOD_S)) + 1


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    wheels: tuple[WheelScenario, ...]

    def wheel(self, wheel_id: str) -> WheelScenario:
        for w in self.wheels:
            if w.wheel_id == wheel_id:
                return w
        raise KeyError(wheel_id)


def _trace_rng(scenario: WheelScenario, parts_ground: int, unit_index: int) -> np.random.Generator:
    key = f"{scenario.seed}|{scenario.wheel_id}|{parts_ground}|{unit_index}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def peak_amplitude_kw(scenario: WheelScenario, parts_ground: int) -> float:
    """Cut-engagement peak height at a given cumulative wear."""
    ratio = min(parts_ground / scenario.wear_capacity_parts, WEAR_RATIO_CAP)
    return scenario.peak_kw_new * (1.0 + scenario.wear_gain * ratio)


def generate_trace(scenario: WheelScenario, parts_ground: int, unit_index: int) -> PowerTrace:
    """Synthesize the power trace for one unit at a given wear level.

    Deterministic in (seed, wheel_id, parts_ground, unit_index).
    """
    if parts_ground < 0:
        raise ValueError("parts_ground must be non-negative")
    n = scenario.n_samples
    times = np.arange(n) * SAMPLE_PERIOD_S

    spacing = scenario.trace_length_s / scenario.n_cuts
    centers = (np.arange(scenario.n_cuts) + 0.5) * spacing
    half = BUMP_HALF_WIDTH_FRACTION * spacing
    u = (times[:, None] - centers[None, :]) / half
    profile = np.where(np.abs(u) < 1.0, 0.5 * (1.0 + np.cos(np.pi * u)), 0.0).sum(axis=1)

    power = scenario.baseline_kw + peak_amplitude_kw(scenario, parts_ground) * profile
    if scenario.noise_kw > 0:
        rng = _trace_rng(scenario, parts_ground, unit_index)
        power = power + scenario.noise_kw * rng.standard_normal(n)

    return PowerTrace(
        unit_id=f"{scenario.wheel_id}-p{parts_ground:05d}-u{unit_index:02d}",
        wheel_id=scenario.wheel_id,
        parts_ground=parts_ground,
        burn_rank=2 if parts_ground >= scenario.burn_onset_parts else 1,
        times=times,
        powers=power,
    )


def generate_wheel_traces(scenario: WheelScenario):
    """All traces of one wheel's campaign, in checkpoint then unit order."""
    for parts, count in scenario.checkpoints:
        for unit_index in range(count):
            yield generate_trace(scenario, parts, unit_index)


def default_preset(seed: int = 42) -> ScenarioPreset:
    """Three-wheel campaign, 20 units per checkpoint, late-life burn."""
    return ScenarioPreset(
        name="default",
        wheels=(
            WheelScenario("wheel1", ((160, 20), (689, 20), (753, 20), (1147, 20), (1367, 20)),
                          burn_onset_parts=1200, seed=seed),
            WheelScenario("wheel2", ((180, 20), (709, 20), (774, 20), (1125, 20), (1400, 20)),
                          burn_onset_parts=1300, seed=seed),
            WheelScenario("wheel3", ((200, 20), (680, 20), (900, 20), (1200, 20), (1600, 20)),
                          burn_onset_parts=1400, seed=seed),
        ),
    )


def table2_preset(seed: int = 42) -> ScenarioPreset:
    """Variant with the evaluation row counts: 66+3 (wheel 2) and 47+3 (wheel 3)."""
    return ScenarioPreset(
        name="table2-counts",
        wheels=(
            WheelScenario("wheel1", ((160, 20), (689, 20), (753, 20), (1147, 20), (1367, 20)),
                          burn_onset_parts=1200, seed=seed),
            WheelScenario("wheel2", ((180, 17), (709, 17), (774, 16), (1125, 16), (1400, 3)),
                          burn_onset_parts=1300, seed=seed),
            WheelScenario("wheel3", ((200, 12), (680, 12), (900, 12), (1200, 11), (1600, 3)),
                          burn_onset_parts=1400, seed=seed),
        ),
    )


PRESETS = {
    "default": default_preset,
    "table2-counts": table2_preset,
}


def make_preset(name: str, seed: int = 42) -> ScenarioPreset:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory(seed)


def generate_campaign(preset: ScenarioPreset, out_dir) -> CampaignManifest:
    """Write every preset trace as CSV plus per-wheel and combined manifests.

    Layout under out_dir: <wheel_id>/<unit_id>.csv for traces,
    <wheel_id>-manifest.csv per wheel, manifest.csv for the whole preset.
    Returns the combined manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_entries: list[ManifestEntry] = []
    for scenario in preset.wheels:
        wheel_entries: list[ManifestEntry] = []
        for trace in generate_wheel_traces(scenario):
            rel = f"{scenario.wheel_id}/{trace.unit_id}.csv"
            path = out / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(serialize_trace_csv(trace), encoding="utf-8")
            wheel_entries.append(
                ManifestEntry(rel, trace.unit_id, scenario.wheel_id,
                              trace.parts_ground, trace.burn_rank)
            )
        save_manifest(
            CampaignManifest(tuple(wheel_entries), base_dir=out),
            out / f"{scenario.wheel_id}-manifest.csv",
        )
        all_entries.extend(wheel_entries)
    combined = CampaignManifest(tuple(all_entries), base_dir=out)
    save_manifest(combined, out / "manifest.csv")
    return combined
