import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    angle_between_lines_deg,
    best_grid_direction_2d,
    fisher_ratio_many,
    random_unit_directions,
)

from grindmon import LdaModel, classify, fisher_ratio, fit_lda, ld1_score, project
from grindmon.errors import DegenerateClasses, DimensionMismatch, SingularWithinScatter, ZeroDirection
from grindmon.traces import LABEL_BURN, LABEL_NOBURN, build_matrix

N = LABEL_NOBURN
B = LABEL_BURN


def two_blob_problem(rng, k, n_per=12, separation=4.0):
    """Well-separated Gaussian classes with a random shared covariance."""
    A = rng.normal(size=(k, k))
    cov_root = A / np.linalg.norm(A, axis=0, keepdims=True)
    mu = rng.normal(size=k) * separation
    x0 = rng.normal(size=(n_per, k)) @ cov_root
    x1 = rng.normal(size=(n_per, k)) @ cov_root + mu
    scores = np.vstack([x0, x1])
    labels = [N] * n_per + [B] * n_per
    return scores, labels


def test_hand_computed_one_dimensional_fit():
    scores = np.array([0.0, 1.0, 4.0, 5.0])
    labels = [N, N, B, B]
    model = fit_lda(scores, labels, priors=(0.5, 0.5))
    np.testing.assert_allclose(model.direction, [1.0])
    assert model.class_means_ld == pytest.approx((0.5, 4.5))
    assert model.threshold == pytest.approx(2.5)
    # pooled within-class variance with the n-2 denominator
    assert fisher_ratio(scores, labels, np.array([1.0])) == pytest.approx(16 / 0.5)


def test_label_swap_mirrors_the_geometry():
    rng = np.random.default_rng(3)
    scores, labels = two_blob_problem(rng, 2)
    swapped = [B if l == N else N for l in labels]
    a = fit_lda(scores, labels, priors=(0.5, 0.5))
    b = fit_lda(scores, swapped, priors=(0.5, 0.5))
    # orientation pins mu_burn > mu_noburn, so the swap flips the axis
    np.testing.assert_allclose(b.direction, -a.direction, atol=1e-12)
    assert b.threshold == pytest.approx(-a.threshold)
    _, la = classify(a, scores)
    _, lb = classify(b, scores)
    np.testing.assert_array_equal(la == B, lb == N)
    for x in scores:
        assert (classify(a, x)[1] == B) == (classify(b, x)[1] == N)


def test_training_set_accuracy_is_total_on_wheel1(wheel1_bundle, wheel1_manifest):
    matrix = build_matrix(wheel1_manifest, wheel1_bundle.resample_length)
    scores = project(wheel1_bundle.pca, matrix.values)
    labels = wheel1_manifest.labels()
    assert labels.count(N) == 80 and labels.count(B) == 20
    _, predicted = classify(wheel1_bundle.lda, scores)
    assert predicted.tolist() == labels


def test_ld1_score_basics():
    scores = np.array([0.0, 1.0, 4.0, 5.0])
    model = fit_lda(scores, [N, N, B, B])
    assert ld1_score(model, np.zeros(1)) == 0.0
    assert ld1_score(model, model.direction) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=1), rng.normal(size=1)
    a, b = 1.7, -0.4
    lhs = ld1_score(model, a * x + b * y)
    rhs = a * ld1_score(model, x) + b * ld1_score(model, y)
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(DimensionMismatch):
        ld1_score(model, np.zeros(3))


def test_classify_threshold_rule():
    model = fit_lda(np.array([0.0, 1.0, 4.0, 5.0]), [N, N, B, B], priors=(0.5, 0.5))
    t = model.threshold
    assert t == 2.5
    ld1, label = classify(model, np.array([2.5 - 1e-9]))
    assert label == N and ld1 - t < 0
    ld1, label = classify(model, np.array([2.5]))
    assert label == B and ld1 - t == 0.0  # a tie is Burn
    # just below, at and above the threshold, then far from it
    values = [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf), -3.0, 9.0]
    stack = np.array(values)[:, None]
    ld1, labels = classify(model, stack)
    assert ld1.shape == labels.shape == (5,)
    assert ld1.tolist() == values
    assert labels.tolist() == [N, B, B, N, B]
    # one vector gives a Python float and str, bit-equal to its row of the stack
    for row, v, label in zip(stack, ld1, labels):
        one_ld1, one_label = classify(model, row)
        assert type(one_ld1) is float and type(one_label) is str
        assert np.float64(one_ld1).tobytes() == v.tobytes() and one_label == label
    with pytest.raises(DimensionMismatch, match="expected 1 score components, got 3"):
        classify(model, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        classify(model, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        classify(model, np.zeros((2, 2, 1)))


def test_degenerate_class_inputs():
    with pytest.raises(DegenerateClasses):
        fit_lda(np.arange(4.0), [N, N, N, N])
    with pytest.raises(DegenerateClasses):
        fit_lda(np.arange(4.0), [N, N, N, B])
    with pytest.raises(DegenerateClasses):
        fit_lda(np.arange(4.0), [N, N, "Mystery", B])
    # coincident class means leave no direction to fit
    scores = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateClasses):
        fit_lda(scores, [N, N, B, B])


def test_zero_within_scatter_is_singular():
    scores = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    labels = [N, N, B, B]
    with pytest.raises(SingularWithinScatter):
        fit_lda(scores, labels, ridge=0.0)
    with pytest.raises(SingularWithinScatter):
        fit_lda(scores, labels)  # ridge scales trace(Sw) = 0, cannot help


def test_ridge_regularizes_rank_deficient_scatter():
    # within-class variation lives on one axis only
    scores = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [1.0, 3.0]])
    labels = [N, N, B, B]
    with pytest.raises(SingularWithinScatter):
        fit_lda(scores, labels, ridge=0.0)
    model = fit_lda(scores, labels)
    assert np.isfinite(model.threshold)
    assert model.mu_burn > model.mu_noburn


def test_priors_shift_threshold():
    scores = np.array([0.0, 1.0, 4.0, 5.0])
    labels = [N, N, B, B]
    mid = fit_lda(scores, labels, priors=(0.5, 0.5)).threshold
    costly_burn = fit_lda(scores, labels, priors=(0.9, 0.1)).threshold
    eager_burn = fit_lda(scores, labels, priors=(0.1, 0.9)).threshold
    assert costly_burn > mid > eager_burn
    with pytest.raises(ValueError):
        fit_lda(scores, labels, priors=(0.0, 1.0))
    with pytest.raises(ValueError):
        fit_lda(scores, labels, priors=(-0.2, 1.2))


def test_huge_equal_priors_mean_equal_priors_and_infinite_ones_are_rejected():
    scores = np.array([0.0, 1.0, 4.0, 5.0])
    labels = [N, N, B, B]
    huge = fit_lda(scores, labels, priors=(1e308, 1e308))
    assert huge.priors == (0.5, 0.5)
    assert huge.threshold == fit_lda(scores, labels, priors=(0.5, 0.5)).threshold
    for priors in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            fit_lda(scores, labels, priors=priors)


@settings(max_examples=300, deadline=None)
@given(priors=st.tuples(st.floats(), st.floats()))
@example(priors=(1e10, 5e-324))  # the smaller prior normalises to 0
def test_any_float_priors_normalise_or_raise_value_error(priors):
    try:
        model = fit_lda(np.array([0.0, 1.0, 4.0, 5.0]), [N, N, B, B], priors=priors)
    except ValueError:
        return
    p_n, p_b = model.priors
    assert 0 < p_n < 1 and 0 < p_b < 1 and abs(p_n + p_b - 1) <= 1e-9
    assert math.isfinite(model.threshold)


@pytest.mark.parametrize("priors", [
    (10**400, 1), (1,), (1, 2, 3), (), 0.5, ("0.5", "0.5"), (True, 1), (0.5, None),
])
def test_priors_must_be_a_pair_of_real_numbers(priors):
    with pytest.raises(ValueError, match="priors"):
        fit_lda(np.array([0.0, 1.0, 4.0, 5.0]), [N, N, B, B], priors=priors)


def test_priors_take_any_pair_of_real_numbers():
    scores, labels = np.array([0.0, 1.0, 4.0, 5.0]), [N, N, B, B]
    for priors in [(1, 3), (np.float32(1.0), np.int64(3)), [0.25, 0.75], iter((1, 3))]:
        assert fit_lda(scores, labels, priors=priors).priors == (0.25, 0.75)


def test_default_priors_are_training_proportions():
    scores = np.array([0.0, 1.0, 2.0, 9.0, 10.0, 11.0, 12.0, 13.0])
    labels = [N] * 3 + [B] * 5
    model = fit_lda(scores, labels)
    assert model.priors == pytest.approx((3 / 8, 5 / 8))


def test_threshold_between_means_for_equal_priors():
    rng = np.random.default_rng(29)
    for _ in range(20):
        scores, labels = two_blob_problem(rng, int(rng.integers(1, 4)))
        model = fit_lda(scores, labels, priors=(0.5, 0.5))
        assert model.mu_noburn < model.threshold < model.mu_burn


def test_fisher_ratio_properties():
    rng = np.random.default_rng(31)
    scores, labels = two_blob_problem(rng, 2)
    model = fit_lda(scores, labels)
    w = rng.normal(size=2)
    assert fisher_ratio(scores, labels, w) == pytest.approx(
        fisher_ratio(scores, labels, 7.0 * w), rel=1e-12
    )
    with pytest.raises(ZeroDirection):
        fisher_ratio(scores, labels, np.zeros(2))
    # agrees with the scratch-built scatter oracle
    ours = fisher_ratio(scores, labels, model.direction)
    ref = fisher_ratio_many(scores, labels, model.direction[None, :])[0]
    assert ours == pytest.approx(ref, rel=1e-9)


def test_ratio_vanishes_orthogonal_to_mean_gap():
    rng = np.random.default_rng(37)
    n_per = 4000  # isotropic classes, large n so sample means are tight
    x0 = rng.normal(size=(n_per, 2))
    x1 = rng.normal(size=(n_per, 2)) + np.array([5.0, 0.0])
    scores = np.vstack([x0, x1])
    labels = [N] * n_per + [B] * n_per
    gap = x1.mean(axis=0) - x0.mean(axis=0)
    w = np.array([-gap[1], gap[0]])
    assert fisher_ratio(scores, labels, w) < 1e-3


def test_fitted_direction_beats_random_directions():
    rng = np.random.default_rng(41)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        scores, labels = two_blob_problem(rng, k)
        model = fit_lda(scores, labels)
        best = fisher_ratio(scores, labels, model.direction)
        ratios = fisher_ratio_many(scores, labels, random_unit_directions(rng, 1000, k))
        assert best >= ratios.max() - 1e-9


def test_fitted_direction_matches_grid_search_2d():
    rng = np.random.default_rng(43)
    scores, labels = two_blob_problem(rng, 2)
    model = fit_lda(scores, labels)
    best = best_grid_direction_2d(scores, labels, step_deg=0.1)
    assert angle_between_lines_deg(model.direction, best) <= 0.5


def test_positive_scaling_never_flips_a_decision():
    rng = np.random.default_rng(47)
    scores, labels = two_blob_problem(rng, 3)
    base = fit_lda(scores, labels)
    for c in (0.01, 3.0, 250.0):
        scaled = fit_lda(scores * c, labels)
        np.testing.assert_array_equal(classify(base, scores)[1], classify(scaled, c * scores)[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 3))
def test_direction_is_unit_norm_and_oriented(seed, k):
    rng = np.random.default_rng(seed)
    scores, labels = two_blob_problem(rng, k)
    model = fit_lda(scores, labels)
    assert abs(np.linalg.norm(model.direction) - 1.0) < 1e-12
    assert model.mu_burn > model.mu_noburn


@pytest.mark.parametrize("field, value, message", [
    ("direction", np.array([math.nan]), "direction must be finite"),
    ("class_means_ld", (-math.inf, 2.0), "class_means_ld must be finite"),
    ("class_means_ld", (-4.0, 2.0, 3.0), "must each hold 2 values"),
    ("threshold", math.nan, "threshold must be finite"),
    ("threshold", math.inf, "threshold must be finite"),
    ("ridge", math.nan, "ridge must be finite"),
    ("ridge", math.inf, "ridge must be finite"),
    ("priors", (0.5, 0.25, 0.25), "must each hold 2 values"),
])
def test_model_rejects_a_bad_field_when_made(field, value, message):
    valid = dict(direction=np.array([1.0]), class_means_ld=(-4.0, 2.0), threshold=1.0,
                 priors=(0.5, 0.5), ridge=0.0)
    LdaModel(**valid)
    with pytest.raises(ValueError, match=message):
        LdaModel(**{**valid, field: value})
