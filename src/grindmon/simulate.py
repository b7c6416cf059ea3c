"""Synthetic grinding campaigns with a controllable, deterministic wear trend.

Every trace has one shape, set by module constants: TRACE_LENGTH_S of power
sampled every SAMPLE_PERIOD_S, a flat BASELINE_KW, and N_CUTS raised-cosine
bumps of half width BUMP_HALF_WIDTH_FRACTION of the cut spacing.  The bump
peak is PEAK_KW_NEW * (1 + WEAR_GAIN * min(wear / WEAR_CAPACITY_PARTS,
WEAR_RATIO_CAP)) at the effective wear of `mean_power_kw`, and NOISE_KW
scales additive Gaussian noise.  Sample times and the cut profile are
computed once at import and shared read-only by every trace.  Randomness
is counter based: every trace is keyed on (seed, wheel, parts, unit), so
regeneration is reproducible file-for-file on any platform.

The bundled presets mirror the three-wheel experiment layout this package
is tested against: five checkpoint batches per wheel with burning starting
late in life.  Wheel 3's onset is not documented in the source campaign
records; the presets place it at 1400 parts.

Each wheel's power tracks its own burn onset.  Every wheel wears alike up
to KNEE parts; past it, a wheel's effective wear is stretched so that it
reaches the REF_ONSET level at its own burn_onset_parts.  The knee sits at
1125 because a wheel-1 model warns at an effective wear of about 1120, and
wheel 2 (onset 1300) is last recorded before its onset at 1125 parts: with
the knee below about 1120, wheel 2 wears too slowly to warn by then, and no
warning precedes its onset.
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
    _is_integer,
    _tuple,
    save_manifest,
    serialize_trace_csv,
)

SAMPLE_PERIOD_S = 0.05  # 50 ms power sampling
TRACE_LENGTH_S = 25.6   # 513 samples per trace
BASELINE_KW = 0.5       # spindle power between cuts
PEAK_KW_NEW = 2.0       # cut-engagement peak of a new wheel
WEAR_GAIN = 0.5         # relative peak growth over one nominal life
WEAR_CAPACITY_PARTS = 1400  # nominal life, shared by every wheel
KNEE = 1125             # parts up to which every wheel wears alike
REF_ONSET = 1200        # a wheel's effective wear at its own burn onset
WEAR_RATIO_CAP = 1.5    # amplitude growth saturates past 1.5x nominal life
NOISE_KW = 0.02         # standard deviation of the additive noise
N_CUTS = 8              # cut-engagement bumps per trace
BUMP_HALF_WIDTH_FRACTION = 0.4  # of the cut spacing; keeps bumps disjoint


def _cut_profile(times: np.ndarray) -> np.ndarray:
    """Unit-height raised-cosine bumps, one centred in each of N_CUTS equal slots."""
    spacing = TRACE_LENGTH_S / N_CUTS
    centers = (np.arange(N_CUTS) + 0.5) * spacing
    half = BUMP_HALF_WIDTH_FRACTION * spacing
    u = (times[:, None] - centers[None, :]) / half
    return np.where(np.abs(u) < 1.0, 0.5 * (1.0 + np.cos(np.pi * u)), 0.0).sum(axis=1)


_TIMES = np.arange(int(round(TRACE_LENGTH_S / SAMPLE_PERIOD_S)) + 1) * SAMPLE_PERIOD_S
_PROFILE = _cut_profile(_TIMES)
_TIMES.setflags(write=False)
_PROFILE.setflags(write=False)


@dataclass(frozen=True)
class WheelScenario:
    """One wheel's lifetime campaign.

    wheel_id names the wheel's directory in a written campaign, so it is one
    plain name.  checkpoints lists (parts_ground, units_recorded) integer
    batches in wear order.  Units at or past burn_onset_parts are labeled
    burn rank 2, earlier ones rank 1.  The onset, at least KNEE + 2, also
    sets how fast power grows past KNEE.  seed keys the noise.
    """

    wheel_id: str
    checkpoints: tuple[tuple[int, int], ...]
    burn_onset_parts: int
    seed: int = 42

    def __post_init__(self):
        wheel_id = self.wheel_id
        if (not isinstance(wheel_id, str) or wheel_id in ("", ".", "..")
                or "/" in wheel_id or "\\" in wheel_id
                or not wheel_id.isprintable() or wheel_id != wheel_id.strip()):
            raise ValueError(f"wheel_id must be one plain directory name, got {wheel_id!r}")
        pairs = [_tuple(pair, "a checkpoint") for pair in _tuple(self.checkpoints, "checkpoints")]
        if not all(len(pair) == 2 and all(map(_is_integer, pair)) for pair in pairs):
            raise ValueError("checkpoints must be (parts_ground, units_recorded) integer pairs")
        object.__setattr__(self, "checkpoints", tuple((int(p), int(u)) for p, u in pairs))
        parts = [p for p, _ in self.checkpoints]
        if any(b <= a for a, b in zip(parts, parts[1:])):
            raise ValueError("checkpoint parts_ground values must be strictly ascending")
        if any(p < 0 or u < 0 for p, u in self.checkpoints):
            raise ValueError("checkpoint parts and unit counts must be non-negative")
        _check_onset(self.burn_onset_parts)
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class ScenarioPreset:
    """A named campaign of wheels, each written under its own wheel_id."""

    name: str
    wheels: tuple[WheelScenario, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        object.__setattr__(self, "wheels", _tuple(self.wheels, "wheels"))
        if not all(isinstance(w, WheelScenario) for w in self.wheels):
            raise ValueError("wheels must be WheelScenario objects")
        ids = [w.wheel_id for w in self.wheels]
        if len(set(ids)) != len(ids):
            raise ValueError(f"wheel ids must be unique, got {ids}")

    def wheel(self, wheel_id: str) -> WheelScenario:
        for w in self.wheels:
            if w.wheel_id == wheel_id:
                return w
        raise KeyError(wheel_id)


def _trace_rng(scenario: WheelScenario, parts_ground: int, unit_index: int) -> np.random.Generator:
    key = f"{scenario.seed}|{scenario.wheel_id}|{parts_ground}|{unit_index}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _check_onset(burn_onset_parts) -> None:
    """Reject an onset that is not an integer of at least KNEE + 2.

    At KNEE + 1 the first part past the knee is the onset itself, already at
    the REF_ONSET level, so a model that has not warned by the knee warns on
    the onset part rather than before it.
    """
    if not _is_integer(burn_onset_parts) or burn_onset_parts < KNEE + 2:
        raise ValueError(f"burn_onset_parts must be an integer of at least KNEE + 2"
                         f" ({KNEE + 2}), got {burn_onset_parts!r}")


def mean_power_kw(parts_ground: int, burn_onset_parts: int = REF_ONSET) -> np.ndarray:
    """Noise-free power of a wheel with this onset, one value per sample time.

    The effective wear is parts_ground up to KNEE, and
    KNEE + (parts_ground - KNEE) * (REF_ONSET - KNEE) / (burn_onset_parts - KNEE)
    past it, so every onset reaches the REF_ONSET level at that onset.  The
    default onset makes the effective wear parts_ground itself.
    """
    if parts_ground < 0:
        raise ValueError("parts_ground must be non-negative")
    _check_onset(burn_onset_parts)
    wear = parts_ground
    if parts_ground > KNEE:
        wear = KNEE + (parts_ground - KNEE) * (REF_ONSET - KNEE) / (burn_onset_parts - KNEE)
    ratio = min(wear / WEAR_CAPACITY_PARTS, WEAR_RATIO_CAP)
    return BASELINE_KW + PEAK_KW_NEW * (1.0 + WEAR_GAIN * ratio) * _PROFILE


def generate_trace(scenario: WheelScenario, parts_ground: int, unit_index: int) -> PowerTrace:
    """Synthesize the power trace for one unit at a given wear level.

    Deterministic in (seed, wheel_id, parts_ground, unit_index).
    """
    power = mean_power_kw(parts_ground, scenario.burn_onset_parts)
    rng = _trace_rng(scenario, parts_ground, unit_index)
    return PowerTrace(
        unit_id=f"{scenario.wheel_id}-p{parts_ground:05d}-u{unit_index:02d}",
        wheel_id=scenario.wheel_id,
        parts_ground=parts_ground,
        burn_rank=2 if parts_ground >= scenario.burn_onset_parts else 1,
        times=_TIMES,
        powers=power + NOISE_KW * rng.standard_normal(_TIMES.size),
    )


def generate_wheel_traces(scenario: WheelScenario):
    """All traces of one wheel's campaign, in checkpoint then unit order."""
    for parts, count in scenario.checkpoints:
        for unit_index in range(count):
            yield generate_trace(scenario, parts, unit_index)


# (wheel_id, checkpoint parts_ground values, burn_onset_parts)
_WHEELS = (
    ("wheel1", (160, 689, 753, 1147, 1367), 1200),
    ("wheel2", (180, 709, 774, 1125, 1400), 1300),
    ("wheel3", (200, 680, 900, 1200, 1600), 1400),
)

# preset name -> units recorded at each checkpoint, one tuple per _WHEELS row
PRESETS = {
    "default": ((20,) * 5,) * 3,
    "table2-counts": ((20,) * 5, (17, 17, 16, 16, 3), (12, 12, 12, 11, 3)),
}


def make_preset(name: str, seed: int = 42) -> ScenarioPreset:
    try:
        units = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return ScenarioPreset(name, tuple(
        WheelScenario(wheel_id, tuple(zip(parts, counts)), onset, seed=seed)
        for (wheel_id, parts, onset), counts in zip(_WHEELS, units)
    ))


def default_preset(seed: int = 42) -> ScenarioPreset:
    """Three-wheel campaign, 20 units per checkpoint, late-life burn."""
    return make_preset("default", seed)


def table2_preset(seed: int = 42) -> ScenarioPreset:
    """Variant with the evaluation row counts: 66+3 (wheel 2) and 47+3 (wheel 3)."""
    return make_preset("table2-counts", seed)


def generate_campaign(preset: ScenarioPreset, out_dir) -> CampaignManifest:
    """Write every preset trace as CSV plus per-wheel and combined manifests.

    Layout under out_dir: <wheel_id>/<unit_id>.csv for traces,
    <wheel_id>-manifest.csv per wheel, manifest.csv for the whole preset.
    Returns the combined manifest.  Every trace shares _TIMES, so
    serialize_trace_csv formats that column once for the whole campaign.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_entries: list[ManifestEntry] = []
    for scenario in preset.wheels:
        (out / scenario.wheel_id).mkdir(exist_ok=True)
        wheel_entries: list[ManifestEntry] = []
        for trace in generate_wheel_traces(scenario):
            rel = f"{scenario.wheel_id}/{trace.unit_id}.csv"
            text = serialize_trace_csv(trace)
            (out / rel).write_text(text, encoding="utf-8")
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
