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
    serialize_trace_csv,
    table2_preset,
)
from grindmon.simulate import SAMPLE_PERIOD_S, ScenarioPreset


def quiet(**kw):
    kw.setdefault("wheel_id", "w")
    kw.setdefault("checkpoints", ((0, 1), (700, 1), (1400, 1)))
    kw.setdefault("burn_onset_parts", 1200)
    kw.setdefault("noise_kw", 0.0)
    return WheelScenario(**kw)


def test_trace_grid_is_50ms():
    trace = generate_trace(quiet(), 0, 0)
    assert trace.n_samples == 513  # 25.6 s span
    np.testing.assert_allclose(np.diff(trace.times), SAMPLE_PERIOD_S, atol=1e-12)


def test_peak_height_at_zero_wear():
    scenario = quiet()
    trace = generate_trace(scenario, 0, 0)
    expected = scenario.baseline_kw + scenario.peak_kw_new
    assert abs(trace.powers.max() - expected) < 1e-9
    assert abs(trace.powers.min() - scenario.baseline_kw) < 1e-9


def test_amplitude_ratio_at_full_nominal_wear():
    scenario = quiet()
    new = generate_trace(scenario, 0, 0)
    worn = generate_trace(scenario, scenario.wear_capacity_parts, 0)
    ratio = (worn.powers.max() - scenario.baseline_kw) / (new.powers.max() - scenario.baseline_kw)
    assert ratio == pytest.approx(1.0 + scenario.wear_gain, abs=1e-9)


def test_wear_saturates_at_one_and_a_half_lives():
    scenario = quiet()
    at_cap = generate_trace(scenario, int(1.5 * scenario.wear_capacity_parts), 0)
    beyond = generate_trace(scenario, 10 * scenario.wear_capacity_parts, 0)
    np.testing.assert_array_equal(at_cap.powers, beyond.powers)


def test_trace_generation_is_deterministic():
    scenario = quiet(noise_kw=0.05)
    a = serialize_trace_csv(generate_trace(scenario, 700, 3))
    b = serialize_trace_csv(generate_trace(scenario, 700, 3))
    assert a == b
    c = serialize_trace_csv(generate_trace(scenario, 700, 4))
    assert a != c  # unit index is part of the random key


def test_seed_changes_noise_but_not_shape():
    s0 = quiet(noise_kw=0.05, seed=1)
    s1 = quiet(noise_kw=0.05, seed=2)
    a = generate_trace(s0, 700, 0)
    b = generate_trace(s1, 700, 0)
    assert not np.array_equal(a.powers, b.powers)
    assert abs(a.powers.mean() - b.powers.mean()) < 0.05


def test_mean_power_strictly_increases_with_wear():
    scenario = quiet()
    means = [generate_trace(scenario, p, 0).powers.mean()
             for p in (0, 200, 500, 900, 1300, 1900)]
    assert all(b > a for a, b in zip(means, means[1:]))


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
    with pytest.raises(ValueError):
        quiet(baseline_kw=0.0)
    with pytest.raises(ValueError):
        quiet(noise_kw=-0.1)
    with pytest.raises(ValueError):
        quiet(trace_length_s=0.01)


def test_make_preset_names():
    assert make_preset("default").name == "default"
    assert make_preset("table2-counts", seed=5).wheels[0].seed == 5
    with pytest.raises(ValueError):
        make_preset("nope")
