import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grindmon import (
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    build_report,
    confusion_matrix,
    fit_bundle,
    predict_campaign,
    report_to_csv,
    serialize_trace_csv,
)
from grindmon.errors import ManifestError
from grindmon.lda import HealthVerdict
from grindmon.pipeline import _spearman_vs_order


def write_noisy_campaign(tmp_path, n_per_class=6, length=24, seed=0):
    """Two-class campaign with genuine multi-axis variation."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(2 * n_per_class):
        burn = i >= n_per_class
        base = 1.0 + (2.0 if burn else 0.0)
        powers = base + rng.normal(size=length) * np.linspace(1.0, 3.0, length)
        trace = PowerTrace(
            unit_id=f"u{i}", wheel_id="w", parts_ground=i * 10,
            burn_rank=2 if burn else 1,
            times=np.arange(length) * 0.05, powers=powers,
        )
        (tmp_path / f"u{i}.csv").write_text(serialize_trace_csv(trace))
        entries.append(ManifestEntry(f"u{i}.csv", f"u{i}", "w", i * 10,
                                     2 if burn else 1))
    return CampaignManifest(tuple(entries), base_dir=tmp_path)


def test_default_component_count_is_capped_for_the_discriminant(tmp_path):
    manifest = write_noisy_campaign(tmp_path, n_per_class=3)  # n = 6
    bundle, summary = fit_bundle(manifest, resample_length=24)
    # isotropic-ish spectrum needs many PCs for 95%, but the cap is n - 2
    assert summary.n_components <= 4
    assert bundle.pca.n_components == summary.n_components


def test_explicit_components_override(tmp_path):
    manifest = write_noisy_campaign(tmp_path)
    bundle, summary = fit_bundle(manifest, resample_length=24, components=3)
    assert summary.n_components == 3
    low = fit_bundle(manifest, resample_length=24, variance_target=0.3)[1]
    assert low.n_components <= summary.n_components
    with pytest.raises(ValueError):
        fit_bundle(manifest, components=2, variance_target=0.9)


def test_fit_refuses_unlabeled_rows(tmp_path):
    manifest = write_noisy_campaign(tmp_path, n_per_class=3)
    entries = list(manifest.entries)
    entries[2] = ManifestEntry(entries[2].trace_file, entries[2].unit_id,
                               entries[2].wheel_id, entries[2].parts_ground, None)
    partial = CampaignManifest(tuple(entries), base_dir=tmp_path)
    with pytest.raises(ManifestError) as err:
        fit_bundle(partial, resample_length=24)
    assert "row 3" in str(err.value) and "u2" in str(err.value)


def test_fit_summary_matches_bundle(wheel1_fit, wheel1_manifest):
    bundle, summary = wheel1_fit
    assert summary.threshold == bundle.lda.threshold
    assert summary.warning_limit == bundle.warning_limit()
    assert summary.n_observations == 100
    assert summary.n_noburn == 80 and summary.n_burn == 20
    assert 0.95 <= summary.cumulative_variance <= 1.0
    assert bundle.training_fingerprint == wheel1_manifest.fingerprint


def test_predict_campaign_keeps_manifest_order(wheel1_bundle, wheel2_manifest):
    verdicts = predict_campaign(wheel1_bundle, wheel2_manifest)
    assert [v.unit_id for v in verdicts] == [e.unit_id for e in wheel2_manifest.entries]


def test_confusion_matrix_skips_unlabeled_rows():
    verdicts = [
        HealthVerdict("a", 0.0, "NoBurn", -1.0),
        HealthVerdict("b", 2.0, "Burn", 1.0),
        HealthVerdict("c", 2.0, "Burn", 1.0),
    ]
    counts = confusion_matrix(verdicts, ["NoBurn", "Burn", None])
    assert counts.tolist() == [[1, 0], [0, 1]]
    assert confusion_matrix(verdicts, [None, None, None]) is None
    with pytest.raises(ValueError):
        confusion_matrix(verdicts, ["NoBurn"])


def test_report_rows_align_with_manifest(wheel1_bundle, wheel1_manifest):
    report = build_report(wheel1_bundle, wheel1_manifest)
    assert report.unit_ids == tuple(e.unit_id for e in wheel1_manifest.entries)
    assert report.scores.shape == (100, wheel1_bundle.pca.n_components)
    assert report.threshold == wheel1_bundle.lda.threshold
    assert 1 <= report.wear_axis <= report.n_components

    text = report_to_csv(report)
    lines = text.splitlines()
    assert len(lines) == 101
    assert lines[0].split(",")[6] == "pc_1"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == report.unit_ids[0]
    # float cells round-trip exactly
    assert float(first[-3]) == report.ld1[0]


# --- Spearman rank correlation against observation order ---

def test_spearman_of_increasing_input_is_one():
    assert abs(_spearman_vs_order(np.array([0.5, 2.0, 3.0, 10.0])) - 1.0) <= 1e-15


def test_spearman_of_decreasing_input_is_minus_one():
    assert abs(_spearman_vs_order(np.array([9.0, 4.0, 1.0, -3.0, -7.0])) + 1.0) <= 1e-15


@pytest.mark.parametrize("values", [[2.5, 2.5, 2.5], [4.0], []])
def test_spearman_of_constant_or_single_input_is_zero(values):
    assert _spearman_vs_order(np.array(values)) == 0.0


def test_spearman_averages_tied_ranks():
    # ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4): r = 4.5 / sqrt(5 * 4.5) = sqrt(0.9)
    assert abs(_spearman_vs_order(np.array([1.0, 2.0, 2.0, 3.0])) - np.sqrt(0.9)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=40))
def test_spearman_is_invariant_under_increasing_transforms(values):
    x = np.array(values, dtype=float)
    assert _spearman_vs_order(np.exp(x / 4.0) + 3.0 * x) == pytest.approx(
        _spearman_vs_order(x), abs=1e-12)
