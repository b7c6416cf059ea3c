"""Principal component analysis of the trace matrix.

Decomposition is a thin SVD of the row-centered matrix rather than an
eigendecomposition of the variable-by-variable covariance: with tens of
observations over hundreds of resampled variables, forming the covariance
is wasteful and numerically worse.  Loading signs follow a deterministic
convention so fitted orientations are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadComponentCount, DimensionMismatch, InsufficientObservations
from .traces import _is_integer, _read_only, _reduce_through_init

ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class PcaModel:
    """Centering vector plus top-k orthonormal loadings of the training data.

    explained_variance_ratio and n_train describe the fit and are None on
    models rebuilt from a persisted file, which stores only what projection
    needs.  A model checks itself when made and holds its arrays
    read-only, so it stays valid while it exists.
    """

    mean: np.ndarray
    loadings: np.ndarray
    singular_values: np.ndarray
    n_train: int | None
    explained_variance_ratio: np.ndarray | None

    def __post_init__(self):
        for name in ("mean", "loadings", "singular_values", "explained_variance_ratio"):
            if name != "explained_variance_ratio" or self.explained_variance_ratio is not None:
                object.__setattr__(self, name, _read_only(getattr(self, name), name))
        n_train = self.n_train
        if n_train is not None and (not _is_integer(n_train) or n_train < 2):
            raise ValueError(f"n_train must be None or an integer of at least 2, got {n_train!r}")
        for name in ("mean", "loadings", "singular_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        L, k = self.loadings.shape
        if self.mean.shape != (L,):
            raise ValueError("mean length must match the loadings rows")
        if self.singular_values.shape != (k,):
            raise ValueError("singular_values must hold one value per loadings column")
        if np.any(self.singular_values < 0) or np.any(np.diff(self.singular_values) > 0):
            raise ValueError("singular values must be non-negative and non-increasing")
        # an orthonormal column holds no entry above 1; rejecting larger ones
        # first keeps the Gram product from overflowing on a hostile file
        if np.any(np.abs(self.loadings) > 1 + ORTHONORMALITY_TOL):
            raise ValueError("loading columns must be orthonormal")
        gram = self.loadings.T @ self.loadings
        if np.max(np.abs(gram - np.eye(k))) > ORTHONORMALITY_TOL:
            raise ValueError("loading columns must be orthonormal")
        if self.explained_variance_ratio is not None:
            evr = self.explained_variance_ratio
            if evr.shape != (k,) or not (np.all(evr >= 0) and evr.sum() <= 1 + 1e-9):
                raise ValueError("explained variance ratios must lie in [0, 1] and sum to <= 1")

    __reduce__ = _reduce_through_init

    @property
    def n_variables(self) -> int:
        return int(self.loadings.shape[0])

    @property
    def n_components(self) -> int:
        return int(self.loadings.shape[1])


def _apply_sign_convention(loadings: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry is positive (ties: lowest index)."""
    out = loadings.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def fit_pca(X, k: int | float) -> PcaModel:
    """Fit a PCA model to an n x L observation matrix.

    k is either a component count (positive int, at most min(n-1, L)) or a
    cumulative explained-variance target in (0, 1], in which case the
    smallest count reaching the target is kept.  Columns are not scaled:
    all variables share kW units.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("observation matrix must be 2-d")
    n, L = X.shape
    if n < 2:
        raise InsufficientObservations(f"need at least 2 observations, got {n}")

    k_max = min(n - 1, L)
    if isinstance(k, (bool, np.bool_)):
        raise BadComponentCount("k must be an integer count or a fraction in (0, 1]")
    if isinstance(k, (int, np.integer)):
        if not 1 <= k <= k_max:
            raise BadComponentCount(f"k={k} outside [1, {k_max}] for a {n}x{L} matrix")
        n_keep = int(k)
        target = None
    elif isinstance(k, (float, np.floating)):
        if not 0.0 < k <= 1.0:
            raise BadComponentCount(f"variance target {k} outside (0, 1]")
        n_keep = None
        target = float(k)
    else:
        raise BadComponentCount(f"k must be int or float, got {type(k).__name__}")

    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    total = float(np.sum(s**2))
    ratios = s**2 / total if total > 0 else np.zeros_like(s)

    if n_keep is None:
        cum = np.cumsum(ratios)
        reached = np.nonzero(cum >= target - 1e-9)[0]
        n_keep = int(reached[0]) + 1 if reached.size else k_max
        n_keep = min(n_keep, k_max)

    return PcaModel(
        mean=mean,
        loadings=_apply_sign_convention(vt[:n_keep].T),
        singular_values=s[:n_keep],
        n_train=n,
        explained_variance_ratio=ratios[:n_keep],
    )


def project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Scores of x: loadings' (x - mean).  Accepts one vector or a stack of rows."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.loadings.shape[0]:
        raise DimensionMismatch(
            f"expected {model.n_variables} variables, got {x.shape[-1]}"
        )
    return (x - model.mean) @ model.loadings


def reconstruct(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    """Back-projection mean + loadings . scores (inverse of project up to truncation)."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape[-1] != model.n_components:
        raise DimensionMismatch(
            f"expected {model.n_components} scores, got {scores.shape[-1]}"
        )
    return model.mean + scores @ model.loadings.T


def truncate(model: PcaModel, k: int) -> PcaModel:
    """Nested sub-model with the first k components of a fitted model."""
    if not 1 <= k <= model.n_components:
        raise BadComponentCount(f"k={k} outside [1, {model.n_components}]")
    evr = model.explained_variance_ratio
    return PcaModel(
        mean=model.mean,
        loadings=model.loadings[:, :k].copy(),
        singular_values=model.singular_values[:k],
        n_train=model.n_train,
        explained_variance_ratio=None if evr is None else evr[:k],
    )
