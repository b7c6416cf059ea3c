import numpy as np
import pytest

from grindmon import (
    WheelScenario,
    default_preset,
    generate_campaign,
    generate_trace,
    generate_wheel_traces,
    load_manifest,
    make_preset,
    mean_power_kw,
    serialize_trace_csv,
    table2_preset,
)
from grindmon.simulate import (
    BASELINE_KW,
    KNEE,
    NOISE_KW,
    PEAK_KW_NEW,
    REF_ONSET,
    SAMPLE_PERIOD_S,
    WEAR_CAPACITY_PARTS,
    WEAR_GAIN,
    WEAR_RATIO_CAP,
    ScenarioPreset,
    _PROFILE,
)


def quiet(**kw):
    kw.setdefault("wheel_id", "w")
    kw.setdefault("checkpoints", ((0, 1), (700, 1), (1400, 1)))
    kw.setdefault("burn_onset_parts", 1200)
    return WheelScenario(**kw)


def test_trace_grid_is_50ms():
    trace = generate_trace(quiet(), 0, 0)
    assert trace.n_samples == 513  # 25.6 s span
    np.testing.assert_allclose(np.diff(trace.times), SAMPLE_PERIOD_S, atol=1e-12)


def test_traces_share_one_read_only_times_array():
    a = generate_trace(quiet(), 0, 0)
    b = generate_trace(quiet(seed=3), 700, 1)
    assert a.times is b.times
    with pytest.raises(ValueError):
        a.times[0] = 1.0


def test_peak_height_at_zero_wear():
    power = mean_power_kw(0)
    assert abs(power.max() - (BASELINE_KW + PEAK_KW_NEW)) < 1e-9
    assert abs(power.min() - BASELINE_KW) < 1e-9


def test_amplitude_ratio_at_full_nominal_wear():
    new = mean_power_kw(0)
    worn = mean_power_kw(WEAR_CAPACITY_PARTS)
    ratio = (worn.max() - BASELINE_KW) / (new.max() - BASELINE_KW)
    assert ratio == pytest.approx(1.0 + WEAR_GAIN, abs=1e-9)


def test_wear_saturates_at_one_and_a_half_lives():
    at_cap = mean_power_kw(int(1.5 * WEAR_CAPACITY_PARTS))
    beyond = mean_power_kw(10 * WEAR_CAPACITY_PARTS)
    np.testing.assert_array_equal(at_cap, beyond)


def test_trace_is_mean_power_plus_noise():
    residual = generate_trace(quiet(), 700, 0).powers - mean_power_kw(700)
    assert abs(residual.mean()) < 0.01
    assert abs(residual.std() - NOISE_KW) < 0.005
    with pytest.raises(ValueError):
        mean_power_kw(-1)


def test_trace_generation_is_deterministic():
    scenario = quiet()
    a = serialize_trace_csv(generate_trace(scenario, 700, 3))
    b = serialize_trace_csv(generate_trace(scenario, 700, 3))
    assert a == b
    c = serialize_trace_csv(generate_trace(scenario, 700, 4))
    assert a != c  # unit index is part of the random key


def test_seed_changes_noise_but_not_shape():
    s0 = quiet(seed=1)
    s1 = quiet(seed=2)
    a = generate_trace(s0, 700, 0)
    b = generate_trace(s1, 700, 0)
    assert not np.array_equal(a.powers, b.powers)
    assert abs(a.powers.mean() - b.powers.mean()) < 0.05


def test_mean_power_strictly_increases_with_wear():
    means = [mean_power_kw(p).mean() for p in (0, 200, 500, 900, 1300, 1900)]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_every_onset_shares_the_power_at_the_knee():
    for onset in (KNEE + 1, 1200, 1300, 1400, 2000):
        np.testing.assert_array_equal(mean_power_kw(KNEE, onset), mean_power_kw(KNEE))


def test_each_wheel_reaches_the_reference_power_at_its_own_onset():
    reference = mean_power_kw(REF_ONSET)
    for wheel in default_preset().wheels:
        onset = wheel.burn_onset_parts
        np.testing.assert_array_equal(mean_power_kw(onset, onset), reference)
        residual = generate_trace(wheel, onset, 0).powers - reference
        assert abs(residual.mean()) < 0.01


def test_the_reference_onset_keeps_wear_equal_to_parts_ground():
    # wheel 1's onset is REF_ONSET, so its traces do not depend on the knee
    for parts in (0, KNEE, KNEE + 1, REF_ONSET, 1367, 2500):
        ratio = min(parts / WEAR_CAPACITY_PARTS, WEAR_RATIO_CAP)
        expected = BASELINE_KW + PEAK_KW_NEW * (1.0 + WEAR_GAIN * ratio) * _PROFILE
        np.testing.assert_array_equal(mean_power_kw(parts, REF_ONSET), expected)


def test_onset_must_lie_past_the_knee():
    with pytest.raises(ValueError, match="exceed KNEE"):
        quiet(burn_onset_parts=KNEE)
    with pytest.raises(ValueError, match="exceed KNEE"):
        mean_power_kw(1300, KNEE)
    quiet(burn_onset_parts=KNEE + 1)


def test_burn_rank_matches_onset():
    scenario = quiet()
    assert generate_trace(scenario, 1199, 0).burn_rank == 1
    assert generate_trace(scenario, 1200, 0).burn_rank == 2
    assert generate_trace(scenario, 1201, 0).burn_rank == 2
    assert generate_trace(scenario, 0, 0).label == "NoBurn"
    assert generate_trace(scenario, 1200, 0).label == "Burn"


def test_default_preset_structure(tmp_path):
    preset = default_preset(seed=42)
    wheel1 = preset.wheel("wheel1")
    assert [p for p, _ in wheel1.checkpoints] == [160, 689, 753, 1147, 1367]
    assert all(u == 20 for _, u in wheel1.checkpoints)
    traces = list(generate_wheel_traces(wheel1))
    assert len(traces) == 100
    assert sum(t.parts_ground == 160 for t in traces) == 20


def test_table2_counts_preset(campaign_dir):
    wheel2 = load_manifest(campaign_dir / "wheel2-manifest.csv")
    ranks2 = [e.burn_rank for e in wheel2.entries]
    assert len(ranks2) == 69
    assert ranks2.count(1) == 66 and ranks2.count(2) == 3
    wheel3 = load_manifest(campaign_dir / "wheel3-manifest.csv")
    ranks3 = [e.burn_rank for e in wheel3.entries]
    assert len(ranks3) == 50
    assert ranks3.count(1) == 47 and ranks3.count(2) == 3


def test_campaign_layout(campaign_dir):
    combined = load_manifest(campaign_dir / "manifest.csv")
    assert len(combined.entries) == 100 + 69 + 50
    for entry in combined.entries[:3]:
        assert (campaign_dir / entry.trace_file).exists()
    # per-wheel manifests partition the combined one in order
    parts = []
    for wheel in ("wheel1", "wheel2", "wheel3"):
        parts.extend(load_manifest(campaign_dir / f"{wheel}-manifest.csv").entries)
    assert tuple(parts) == combined.entries


def test_empty_checkpoints_give_empty_manifest(tmp_path):
    preset = ScenarioPreset("empty", (quiet(checkpoints=()),))
    manifest = generate_campaign(preset, tmp_path)
    assert manifest.entries == ()
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert sorted(p.name for p in written) == ["manifest.csv", "w-manifest.csv"]


def test_campaign_regeneration_is_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_campaign(table2_preset(seed=7), a_dir)
    generate_campaign(table2_preset(seed=7), b_dir)
    files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel


def test_scenario_validation():
    with pytest.raises(ValueError):
        quiet(checkpoints=((100, 2), (100, 2)))
    with pytest.raises(ValueError):
        quiet(checkpoints=((200, 2), (100, 2)))
    with pytest.raises(ValueError):
        quiet(burn_onset_parts=0)


def test_make_preset_names():
    assert make_preset("default").name == "default"
    assert make_preset("table2-counts", seed=5).wheels[0].seed == 5
    with pytest.raises(ValueError):
        make_preset("nope")


# checkpoints and burn onset of each wheel, per preset; seed 5 throughout
PRESET_WHEELS = {
    "default": [
        ("wheel1", ((160, 20), (689, 20), (753, 20), (1147, 20), (1367, 20)), 1200, 5),
        ("wheel2", ((180, 20), (709, 20), (774, 20), (1125, 20), (1400, 20)), 1300, 5),
        ("wheel3", ((200, 20), (680, 20), (900, 20), (1200, 20), (1600, 20)), 1400, 5),
    ],
    "table2-counts": [
        ("wheel1", ((160, 20), (689, 20), (753, 20), (1147, 20), (1367, 20)), 1200, 5),
        ("wheel2", ((180, 17), (709, 17), (774, 16), (1125, 16), (1400, 3)), 1300, 5),
        ("wheel3", ((200, 12), (680, 12), (900, 12), (1200, 11), (1600, 3)), 1400, 5),
    ],
}


@pytest.mark.parametrize("name, factory", [("default", default_preset),
                                           ("table2-counts", table2_preset)])
def test_preset_wheel_tables_are_pinned(name, factory):
    preset = make_preset(name, 5)
    assert preset.name == name
    assert [(w.wheel_id, w.checkpoints, w.burn_onset_parts, w.seed)
            for w in preset.wheels] == PRESET_WHEELS[name]
    assert factory(5) == preset
