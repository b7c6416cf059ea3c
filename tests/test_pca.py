import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import jacobi_eigh, sample_covariance

from grindmon import (
    PcaModel,
    fit_pca,
    project,
    reconstruct,
    truncate,
)
from grindmon.errors import (
    BadComponentCount,
    DimensionMismatch,
    InsufficientObservations,
)
from grindmon.pca import _apply_sign_convention


def test_collinear_rows_single_component():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    model = fit_pca(X, 1)
    np.testing.assert_allclose(model.loadings[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(model.explained_variance_ratio, [1.0], atol=1e-12)


def test_axis_aligned_example_matches_hand_eigendecomposition():
    # covariance is diag(8/3, 2/3) with the n-1 = 3 denominator
    X = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    model = fit_pca(X, 2)
    np.testing.assert_allclose(model.loadings[:, 0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(model.loadings[:, 1], [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(model.explained_variance_ratio, [0.8, 0.2], atol=1e-12)
    var = model.singular_values ** 2 / (X.shape[0] - 1)
    np.testing.assert_allclose(var, [8 / 3, 2 / 3], atol=1e-12)


def test_full_rank_reconstruction():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 512))
    model = fit_pca(X, 19)
    scores = project(model, X)
    np.testing.assert_allclose(reconstruct(model, scores), X, atol=1e-8)


def test_project_centered_origin_and_unit_axes():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 6))
    model = fit_pca(X, 4)
    np.testing.assert_allclose(project(model, model.mean), np.zeros(4), atol=1e-12)
    for j in range(4):
        e_j = np.zeros(4)
        e_j[j] = 1.0
        np.testing.assert_allclose(project(model, model.mean + model.loadings[:, j]),
                                   e_j, atol=1e-10)


def test_training_score_variance_matches_singular_values():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 9))
    model = fit_pca(X, 5)
    scores = project(model, X)
    var = scores.var(axis=0, ddof=1)
    np.testing.assert_allclose(var, model.singular_values ** 2 / 29, atol=1e-8)


def test_reconstruct_zero_scores_is_mean():
    X = np.random.default_rng(8).normal(size=(7, 5))
    model = fit_pca(X, 3)
    np.testing.assert_allclose(reconstruct(model, np.zeros(3)), model.mean, atol=1e-12)


def test_reconstruction_error_non_increasing_in_k():
    # squared error onto nested subspaces shrinks as components are added
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 12))
    full = fit_pca(X, 11)
    errors = []
    for k in range(1, 12):
        model = truncate(full, k)
        recon = reconstruct(model, project(model, X))
        errors.append(float(np.sum((recon - X) ** 2)))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_explained_variance_ratio():
    one = fit_pca(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), 1)
    np.testing.assert_allclose(one.explained_variance_ratio, [1.0])

    X = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ratios = fit_pca(X, 2).explained_variance_ratio
    assert ratios.shape == (2,)
    assert ratios[0] == pytest.approx(0.8)
    assert np.cumsum(ratios)[-1] == pytest.approx(1.0)


def test_variance_target_selects_smallest_k():
    X = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert fit_pca(X, 0.8).n_components == 1
    assert fit_pca(X, 0.80001).n_components == 2
    assert fit_pca(X, 1.0).n_components == 2


def test_fit_errors():
    X = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(InsufficientObservations):
        fit_pca(X[:1], 1)
    with pytest.raises(BadComponentCount):
        fit_pca(X, 0)
    with pytest.raises(BadComponentCount):
        fit_pca(X, 6)  # min(n-1, L) = 4 here
    with pytest.raises(BadComponentCount):
        fit_pca(X, True)
    with pytest.raises(BadComponentCount):
        fit_pca(X, 0.0)
    with pytest.raises(BadComponentCount):
        fit_pca(X, 1.2)


def test_project_dimension_mismatch():
    model = fit_pca(np.random.default_rng(1).normal(size=(5, 4)), 2)
    with pytest.raises(DimensionMismatch, match="expected 4 variables, got 5"):
        project(model, np.zeros(5))
    with pytest.raises(DimensionMismatch):
        reconstruct(model, np.zeros(3))


def test_translation_invariance():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(12, 7))
    shift = rng.normal(size=7) * 100
    a = fit_pca(X, 4)
    b = fit_pca(X + shift, 4)
    np.testing.assert_allclose(a.loadings, b.loadings, atol=1e-9)
    np.testing.assert_allclose(a.singular_values, b.singular_values, atol=1e-9)


def test_fit_is_deterministic():
    X = np.random.default_rng(21).normal(size=(9, 30))
    a = fit_pca(X, 5)
    b = fit_pca(X.copy(), 5)
    assert np.array_equal(a.loadings, b.loadings)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.mean, b.mean)


def test_sign_convention_on_fitted_models():
    rng = np.random.default_rng(17)
    for _ in range(20):
        X = rng.normal(size=(rng.integers(3, 12), rng.integers(2, 9)))
        k = int(min(X.shape[0] - 1, X.shape[1]))
        model = fit_pca(X, k)
        for j in range(k):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0


def test_sign_convention_tie_breaks_to_lowest_index():
    inv = 1 / np.sqrt(2)
    flipped = _apply_sign_convention(np.array([[-inv], [inv]]))
    np.testing.assert_allclose(flipped[:, 0], [inv, -inv])
    kept = _apply_sign_convention(np.array([[inv], [-inv]]))
    np.testing.assert_allclose(kept[:, 0], [inv, -inv])


def test_largest_scale_column_dominates_pc1():
    # columns are not scaled, so PC1 follows the largest-variance column
    rng = np.random.default_rng(23)
    X = rng.normal(size=(25, 4)) * np.array([1.0, 10.0, 100.0, 1000.0])
    plain = fit_pca(X, 2)
    assert abs(plain.loadings[3, 0]) > 0.99


# --- oracle equivalence (small matrices, brute-force Jacobi) ---

def test_jacobi_oracle_matches_closed_form_2x2():
    # eigensystem of [[2,1],[1,2]] is 3 @ (1,1)/sqrt(2) and 1 @ (1,-1)/sqrt(2)
    vals, vecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
    inv = 1 / np.sqrt(2)
    assert abs(abs(float(vecs[:, 0] @ [inv, inv])) - 1.0) < 1e-12
    assert abs(abs(float(vecs[:, 1] @ [inv, -inv])) - 1.0) < 1e-12


def test_pca_matches_jacobi_on_small_matrices():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        L = int(rng.integers(2, 9))
        X = rng.normal(size=(n, L))
        k = int(min(n - 1, L))
        model = fit_pca(X, k)
        eigvals, eigvecs = jacobi_eigh(sample_covariance(X))
        np.testing.assert_allclose(model.singular_values ** 2 / (n - 1),
                                   eigvals[:k], atol=1e-8)
        oriented = _apply_sign_convention(eigvecs[:, :k].copy())
        for j in range(k):
            if eigvals[j] < 1e-10:
                continue  # null-space vectors are arbitrary
            cosine = float(model.loadings[:, j] @ oriented[:, j])
            assert cosine >= 1 - 1e-8


@settings(max_examples=40, deadline=None)
@given(
    X=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 10), st.integers(1, 8)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
    )
)
def test_fitted_models_keep_structural_invariants(X):
    k = int(min(X.shape[0] - 1, X.shape[1]))
    model = fit_pca(X, k)
    gram = model.loadings.T @ model.loadings
    np.testing.assert_allclose(gram, np.eye(k), atol=1e-9)
    s = model.singular_values
    assert np.all(s[:-1] >= s[1:] - 1e-12) and np.all(s >= 0)
    assert model.explained_variance_ratio.sum() <= 1 + 1e-9


def _identity_pca(**fields):
    valid = dict(mean=np.zeros(2), loadings=np.array([[1.0], [0.0]]),
                 singular_values=np.array([1.0]), n_train=None, explained_variance_ratio=None)
    return PcaModel(**{**valid, **fields})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["mean", "loadings", "singular_values"])
def test_model_rejects_a_non_finite_field_when_made(field, bad):
    value = np.array(getattr(_identity_pca(), field))
    value.flat[0] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _identity_pca(**{field: value})


def test_model_holds_read_only_copies_and_leaves_the_callers_arrays_alone():
    mean = np.zeros(2)
    loadings = np.array([[1.0], [0.0]])
    model = _identity_pca(mean=mean, loadings=loadings)
    assert model.mean is not mean and mean.flags.writeable and loadings.flags.writeable
    mean[0] = loadings[1, 0] = 5.0  # the caller's arrays stay theirs to write
    assert model.mean.tolist() == [0.0, 0.0] and model.loadings.tolist() == [[1.0], [0.0]]
    for array in (model.mean, model.loadings, model.singular_values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    for array in (model.loadings, model.loadings.T, model.loadings[0]):
        with pytest.raises(ValueError):
            array.flags.writeable = True
