"""Two-class Fisher linear discriminant on PCA scores.

The discriminant direction is Sw^-1 (mu_burn - mu_noburn) with the pooled
within-class covariance Sw regularized by a small trace-relative ridge.
LD1 is oriented so that it increases with wear; the decision threshold is
the midpoint of the projected class means with the usual log-prior shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClasses,
    DimensionMismatch,
    SingularWithinScatter,
    ZeroDirection,
)
from .traces import LABEL_BURN, LABEL_NOBURN, _float_array, _read_only, _real, _reduce_through_init

DEFAULT_RIDGE = 1e-8
_LABELS = np.array([LABEL_NOBURN, LABEL_BURN])  # indexed by ld1 >= threshold


@dataclass(frozen=True)
class LdaModel:
    """Unit-norm discriminant direction in score space plus the decision rule.

    class_means_ld is (mu_noburn, mu_burn) on LD1 with mu_burn > mu_noburn;
    scores at or above threshold classify as Burn.  A model checks itself
    when made and holds an immutable copy of its direction (see
    `_read_only`), so it stays valid while it exists.
    """

    direction: np.ndarray
    class_means_ld: tuple[float, float]
    threshold: float
    priors: tuple[float, float]
    ridge: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _read_only(self.direction, "direction"))
        for name in ("class_means_ld", "priors"):
            pair = _float_array(getattr(self, name), name)
            if pair.shape != (2,):
                raise ValueError("class_means_ld and priors must each hold 2 values")
            object.__setattr__(self, name, tuple(pair.tolist()))
        for name in ("threshold", "ridge"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("direction", "class_means_ld", "threshold", "ridge"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        # no entry of a vector within the norm's tolerance exceeds it; rejecting
        # larger ones first keeps the norm from overflowing
        direction = self.direction
        if (np.any(np.abs(direction) > 1.0 + 1e-12)
                or abs(float(np.linalg.norm(direction)) - 1.0) > 1e-12):
            raise ValueError("direction must have unit norm")
        if not self.mu_burn > self.mu_noburn:
            raise ValueError("LD1 must increase with wear (mu_burn > mu_noburn)")
        p_n, p_b = self.priors
        if not (0 < p_n < 1 and 0 < p_b < 1 and abs(p_n + p_b - 1) <= 1e-9):
            raise ValueError("priors must lie in (0, 1) and sum to 1")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")

    __reduce__ = _reduce_through_init

    @property
    def n_components(self) -> int:
        return int(self.direction.size)

    @property
    def mu_noburn(self) -> float:
        return self.class_means_ld[0]

    @property
    def mu_burn(self) -> float:
        return self.class_means_ld[1]


@dataclass(frozen=True)
class HealthVerdict:
    """Per-unit classification as `classify` decides it; margin = ld1 - threshold."""

    unit_id: str
    ld1: float
    label: str
    margin: float


def _split_classes(scores: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    labels = list(labels)
    if len(labels) != scores.shape[0]:
        raise DimensionMismatch("one label per score row required")
    unknown = sorted({l for l in labels if l not in (LABEL_NOBURN, LABEL_BURN)})
    if unknown:
        raise DegenerateClasses(f"unknown class labels: {unknown}")
    mask_burn = np.array([l == LABEL_BURN for l in labels])
    noburn = scores[~mask_burn]
    burn = scores[mask_burn]
    if len(noburn) < 2 or len(burn) < 2:
        raise DegenerateClasses(
            f"need >= 2 observations per class, got {len(noburn)} {LABEL_NOBURN}"
            f" and {len(burn)} {LABEL_BURN}"
        )
    return noburn, burn


def _pooled_variance(proj_n: np.ndarray, proj_b: np.ndarray) -> float:
    """Pooled within-class variance of two classes' projections, (n - 2) denominator."""
    ss_within = float(np.sum((proj_n - proj_n.mean()) ** 2) + np.sum((proj_b - proj_b.mean()) ** 2))
    return ss_within / (len(proj_n) + len(proj_b) - 2)


def fit_lda(
    scores,
    labels,
    priors: tuple[float, float] | None = None,
    ridge: float = DEFAULT_RIDGE,
) -> LdaModel:
    """Fit the Fisher discriminant to an n x k score matrix and class labels.

    Sw uses the pooled (n - 2) denominator and is regularized as
    Sw + ridge * (trace(Sw) / k) * I before inversion; ridge must be a
    finite, non-negative real number.  A ridge that makes the regularized
    scatter overflow, or a direction that underflows to zero, raises
    ValueError naming the ridge.  priors default to
    the training class proportions; given ones must be a pair of positive,
    finite real numbers and are scaled to sum to 1.  The threshold is the
    projected-mean midpoint shifted by
    ln(p_noburn / p_burn) * s2_pooled / (mu_burn - mu_noburn).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1:
        scores = scores[:, None]
    n, k = scores.shape
    noburn, burn = _split_classes(scores, labels)
    ridge = _real(ridge, "ridge")
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and non-negative, got {ridge!r}")

    mu_n = noburn.mean(axis=0)
    mu_b = burn.mean(axis=0)
    centered_n = noburn - mu_n
    centered_b = burn - mu_b
    sw = (centered_n.T @ centered_n + centered_b.T @ centered_b) / (n - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        sw_reg = sw + ridge * (np.trace(sw) / k) * np.eye(k)
    if np.isfinite(sw).all() and not np.isfinite(sw_reg).all():
        raise ValueError(f"ridge {ridge!r} makes the regularized within-class scatter overflow")

    delta = mu_b - mu_n
    if not np.any(delta):
        raise DegenerateClasses("class means coincide; no discriminant direction exists")
    try:
        raw = np.linalg.solve(sw_reg, delta)
    except np.linalg.LinAlgError:
        raise SingularWithinScatter(
            "within-class scatter singular; raise ridge or reduce components"
        ) from None
    if not np.all(np.isfinite(raw)):
        raise SingularWithinScatter("within-class scatter numerically singular")

    largest = np.abs(raw).max()
    if largest == 0.0:
        raise ValueError(f"the discriminant direction underflows to zero with ridge {ridge!r}:"
                         " the class means are too close for the within-class scatter")
    raw = np.ldexp(raw, -math.frexp(largest)[1])  # exact, so the norm neither over- nor underflows
    direction = raw / np.linalg.norm(raw)
    mu_b_ld = float(direction @ mu_b)
    mu_n_ld = float(direction @ mu_n)
    if mu_b_ld < mu_n_ld:  # orient LD1 to increase with wear
        direction = -direction
        mu_b_ld, mu_n_ld = -mu_b_ld, -mu_n_ld

    if priors is None:
        priors = (len(noburn) / n, len(burn) / n)
    p_n, p_b = _prior_pair(priors)
    if not (0 < p_n < math.inf and 0 < p_b < math.inf):
        raise ValueError("priors must be positive and finite")
    scale = 2.0 if p_n + p_b == math.inf else 1.0  # halving is exact and keeps the sum finite
    total = p_n / scale + p_b / scale
    p_n, p_b = p_n / scale / total, p_b / scale / total
    if not (0 < p_n < 1 and 0 < p_b < 1):
        raise ValueError("priors too unequal: the smaller one vanishes beside the larger")

    s2_pooled = _pooled_variance(noburn @ direction, burn @ direction)
    threshold = 0.5 * (mu_n_ld + mu_b_ld) + math.log(p_n / p_b) * s2_pooled / (mu_b_ld - mu_n_ld)

    return LdaModel(
        direction=direction,
        class_means_ld=(mu_n_ld, mu_b_ld),
        threshold=float(threshold),
        priors=(p_n, p_b),
        ridge=ridge,
    )


def _prior_pair(priors) -> tuple[float, float]:
    """priors as two floats; ValueError unless they are a pair of real numbers."""
    try:
        p_n, p_b = priors
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ValueError("priors must be a pair of real numbers") from None
    return _real(p_n, "a prior in priors"), _real(p_b, "a prior in priors")


def _ld1(model: LdaModel, scores: np.ndarray):
    """ld1 of a float score array after its one component check."""
    direction = model.direction
    if scores.shape[-1] != direction.size:
        raise DimensionMismatch(
            f"expected {direction.size} score components, got {scores.shape[-1]}"
        )
    return scores @ direction


def ld1_score(model: LdaModel, scores: np.ndarray):
    """Discriminant score dot(direction, scores); accepts a vector or row stack."""
    return _ld1(model, np.asarray(scores, dtype=float))


def classify(model: LdaModel, scores: np.ndarray):
    """(ld1, labels) for one score vector or an n x k stack.

    For one vector, ld1 is a Python float and the label a Python str; for a
    stack, ld1 is a float array and the labels a str array of the same
    shape.  The one decision rule: Burn exactly when ld1 >= threshold, so
    ties are Burn.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1 and scores.shape[0] == model.direction.shape[0]:
        # one monitor step: compare as Python scalars, skip numpy boxing
        ld1 = float(scores @ model.direction)
        return ld1, LABEL_BURN if ld1 >= model.threshold else LABEL_NOBURN
    if scores.ndim not in (1, 2):
        raise DimensionMismatch("classify takes a score vector or a stack of score rows")
    ld1 = _ld1(model, scores)  # raises for a vector of the wrong length
    return ld1, _LABELS.take(ld1 >= model.threshold)


def fisher_ratio(scores, labels, w) -> float:
    """Between-class over pooled within-class variance of projections onto w.

    Scale-invariant in w; the fitted direction maximizes it.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1:
        scores = scores[:, None]
    w = np.asarray(w, dtype=float)
    if w.shape != (scores.shape[1],):
        raise DimensionMismatch(f"direction must have length {scores.shape[1]}")
    if not np.any(w):
        raise ZeroDirection("direction must be nonzero")
    noburn, burn = _split_classes(scores, labels)
    proj_n = noburn @ w
    proj_b = burn @ w
    between = (proj_b.mean() - proj_n.mean()) ** 2
    within = _pooled_variance(proj_n, proj_b)
    if within == 0.0:
        return math.inf if between > 0 else 0.0
    return float(between / within)
