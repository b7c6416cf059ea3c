import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grindmon import (
    DEFAULT_RESAMPLE_LENGTH,
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    build_matrix,
    build_report,
    confusion_matrix,
    fit_bundle,
    fit_matrix,
    generate_campaign,
    generate_wheel_traces,
    load_manifest,
    model_to_json,
    predict_campaign,
    report_to_csv,
    resample,
    score_matrix,
    serialize_trace_csv,
    table2_preset,
)
from grindmon.errors import ManifestError
from grindmon.lda import HealthVerdict
from grindmon.pipeline import _spearman_vs_order
from grindmon.traces import power_limit


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


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_in_memory_core_equals_the_csv_route(tmp_path, seed):
    """fit_matrix and score_matrix on generated traces give what the written campaign gives.

    This pins the trace CSV write and parse round trip end to end: the model
    JSON is byte-identical and every LD1 is bit-equal.
    """
    preset = table2_preset(seed)
    generate_campaign(preset, tmp_path)
    manifests = [load_manifest(tmp_path / f"{w.wheel_id}-manifest.csv") for w in preset.wheels]
    traces = [list(generate_wheel_traces(w)) for w in preset.wheels]
    matrices = [np.array([resample(t, DEFAULT_RESAMPLE_LENGTH) for t in ts]) for ts in traces]

    bundle, summary = fit_matrix(matrices[0], [t.label for t in traces[0]],
                                 manifests[0].fingerprint)
    csv_bundle, csv_summary = fit_bundle(manifests[0])
    assert model_to_json(bundle) == model_to_json(csv_bundle)
    assert summary == csv_summary
    for X, manifest in zip(matrices[1:], manifests[1:]):
        scores, ld1, labels = score_matrix(bundle, X)
        verdicts = predict_campaign(csv_bundle, manifest)
        assert scores.shape == (len(verdicts), bundle.pca.n_components)
        assert ld1.tobytes() == np.array([v.ld1 for v in verdicts]).tobytes()
        assert labels.tolist() == [v.label for v in verdicts]


def test_fit_matrix_takes_its_resample_length_from_the_matrix():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(6, 16)), rng.normal(size=(6, 16)) + 3.0])
    bundle, summary = fit_matrix(X, ["NoBurn"] * 6 + ["Burn"] * 6, "no-manifest")
    assert bundle.resample_length == summary.n_samples_per_trace == 16
    assert summary.n_observations == 12
    assert bundle.training_fingerprint == "no-manifest"
    with pytest.raises(ValueError):
        fit_matrix(X, ["NoBurn"] * 6 + ["Burn"] * 6, "x", components=2, variance_target=0.9)


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


# --- metamorphic oracles for the fit ---

# LD1 agrees within this fraction of max|LD1| after a decimal rescale or a
# row permutation; 2,000 random problems gave at most 2.2e-14.
LD1_RTOL = 1e-12


def two_class_problem(seed):
    """A small random matrix whose Burn rows are offset along a random axis."""
    rng = np.random.default_rng(seed)
    n_per, length = int(rng.integers(4, 9)), int(rng.integers(3, 17))
    X = rng.standard_normal((2 * n_per, length))
    X[n_per:] += 3.0 * rng.standard_normal(length)
    return X, ["NoBurn"] * n_per + ["Burn"] * n_per


def assert_scaled_fit(bundle, base, j):
    """bundle is base fitted on X * 2**j: shapes bit-equal, levels exactly 2**j larger."""
    np.testing.assert_array_equal(bundle.pca.loadings, base.pca.loadings)
    np.testing.assert_array_equal(bundle.lda.direction, base.lda.direction)
    np.testing.assert_array_equal(bundle.pca.mean, np.ldexp(base.pca.mean, j))
    np.testing.assert_array_equal(bundle.pca.singular_values,
                                  np.ldexp(base.pca.singular_values, j))
    assert bundle.lda.class_means_ld == tuple(math.ldexp(m, j) for m in base.lda.class_means_ld)
    assert bundle.lda.threshold == math.ldexp(base.lda.threshold, j)


# Between 2**440 and 2**512 the largest entry passes about 1.5e138, where
# LAPACK's SVD rescales the matrix by a factor that is not a power of two;
# nothing overflows there, but the last bits may differ.  From 2**512 on,
# fit_matrix itself rescales by 2**-k.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       j=st.one_of(st.integers(-200, 440), st.integers(512, 1000)))
def test_power_of_two_rescale_scales_the_fit_exactly(seed, j):
    X, labels = two_class_problem(seed)
    base, _ = fit_matrix(X, labels, "f")
    bundle, _ = fit_matrix(np.ldexp(X, j), labels, "f")
    assert_scaled_fit(bundle, base, j)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1e-3, 1e3]))
def test_decimal_rescale_keeps_labels_and_scales_ld1(seed, c):
    X, labels = two_class_problem(seed)
    _, ld1, predicted = score_matrix(fit_matrix(X, labels, "f")[0], X)
    _, ld1_c, predicted_c = score_matrix(fit_matrix(X * c, labels, "f")[0], X * c)
    assert predicted_c.tolist() == predicted.tolist()
    assert np.max(np.abs(ld1_c / c - ld1)) <= LD1_RTOL * np.max(np.abs(ld1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_order_does_not_change_the_fit(seed):
    X, labels = two_class_problem(seed)
    perm = np.random.default_rng(seed).permutation(len(labels))
    _, ld1, predicted = score_matrix(fit_matrix(X, labels, "f")[0], X)
    bundle, _ = fit_matrix(X[perm], [labels[i] for i in perm], "f")
    _, ld1_p, predicted_p = score_matrix(bundle, X)
    assert predicted_p.tolist() == predicted.tolist()
    assert np.max(np.abs(ld1_p - ld1)) <= LD1_RTOL * np.max(np.abs(ld1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["1e160", "power_limit", "2**600"])
def test_fit_on_accepted_but_huge_powers(wheel1_manifest, scale):
    """Powers up to power_limit(L), which build_matrix admits, fit without overflow."""
    X = build_matrix(wheel1_manifest).values
    labels = wheel1_manifest.labels()
    c = {"1e160": 1e160, "power_limit": power_limit(X.shape[1]) / np.abs(X).max(),
         "2**600": 2.0**600}[scale]
    base, _ = fit_matrix(X, labels, "f")
    bundle, _ = fit_matrix(X * c, labels, "f")
    if scale == "2**600":
        assert_scaled_fit(bundle, base, 600)
    _, ld1, predicted = score_matrix(base, X)
    _, ld1_c, predicted_c = score_matrix(bundle, X * c)
    assert predicted_c.tolist() == predicted.tolist()
    assert np.max(np.abs(ld1_c / c - ld1)) <= LD1_RTOL * np.max(np.abs(ld1))
    assert abs(bundle.lda.threshold / c / base.lda.threshold - 1) <= LD1_RTOL
