"""The reference on inputs whose answers are worked out by hand."""

import math

import numpy as np
import pytest

import reference


def test_parse_trace_text():
    times, powers = reference.parse_trace_text("time_s,power_kw\n0,1\n0.5,2.5\n1,3\n")
    assert times.tolist() == [0.0, 0.5, 1.0]
    assert powers.tolist() == [1.0, 2.5, 3.0]
    with pytest.raises(ValueError):
        reference.parse_trace_text("t,p\n0,1\n1,2\n")


def test_resample_interpolates_and_pins_endpoints():
    times = np.array([0.0, 1.0, 2.0])
    powers = np.array([0.0, 10.0, 40.0])
    assert reference.resample(times, powers, 5).tolist() == [0.0, 5.0, 10.0, 25.0, 40.0]
    assert reference.resample(times, powers, 2).tolist() == [0.0, 40.0]


def test_pca_of_points_on_a_line():
    t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    X = np.outer(t, [-0.6, -0.8]) + [1.0, 2.0]
    mean, loadings, ratios = reference.pca_eigh(X)
    np.testing.assert_allclose(mean, [1.0, 2.0])
    np.testing.assert_allclose(loadings, [[0.6], [0.8]])  # largest entry made positive
    np.testing.assert_allclose(ratios, [1.0, 0.0], atol=1e-15)


def test_pca_keeps_components_up_to_the_variance_target_capped_at_n_minus_2():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    _, loadings, ratios = reference.pca_eigh(X)
    np.testing.assert_allclose(ratios, [0.8, 0.2])  # variances 2/3 and 1/6
    np.testing.assert_allclose(np.abs(loadings), np.eye(2))
    _, loadings, _ = reference.pca_eigh(X, target=0.8)
    assert loadings.shape == (2, 1)


def test_fisher_threshold_one_dimension():
    scores = np.array([[0.0], [2.0], [4.0], [6.0], [8.0]])
    burn = np.array([False, False, True, True, True])
    w, m_a, m_b, threshold = reference.fisher(scores, burn)
    assert w.tolist() == [1.0]
    assert (m_a, m_b) == (1.0, 6.0)
    s2 = (2.0 + 8.0) / 3  # pooled within-class sum of squares over n - 2
    assert threshold == pytest.approx(3.5 + math.log(2 / 3) * s2 / 5.0, rel=1e-12)


def test_fisher_two_dimensions_equal_priors():
    noburn = [(-1, 0), (1, 0), (0, 1), (0, -1)]
    burn = [(3, 0), (5, 0), (4, 1), (4, -1)]
    scores = np.array(noburn + burn, dtype=float)
    w, m_a, m_b, threshold = reference.fisher(scores, np.array([False] * 4 + [True] * 4))
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-15)
    assert (m_a, m_b) == pytest.approx((0.0, 4.0))
    assert threshold == pytest.approx(2.0)


def test_fisher_orients_ld1_to_grow_with_wear():
    scores = np.array([[8.0], [6.0], [1.0], [0.0], [2.0]])
    w, m_a, m_b, _ = reference.fisher(scores, np.array([True, True, False, False, False]))
    assert w.tolist() == [1.0] and m_b > m_a


def test_model_scores_and_warning_limit():
    model = reference.RefModel(
        mean=np.array([1.0, 1.0]),
        loadings=np.array([[1.0], [0.0]]),
        direction=np.array([1.0]),
        mu_noburn=0.0,
        mu_burn=4.0,
        threshold=2.0,
    )
    assert model.ld1(np.array([[3.0, 7.0], [0.0, 0.0]])).tolist() == [2.0, -1.0]
    assert model.warning_limit == pytest.approx(1.6)
