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
from .traces import LABEL_BURN, LABEL_NOBURN

DEFAULT_RIDGE = 1e-8
_LABELS = np.array([LABEL_NOBURN, LABEL_BURN])  # indexed by ld1 >= threshold


@dataclass(frozen=True)
class LdaModel:
    """Unit-norm discriminant direction in score space plus the decision rule.

    class_means_ld is (mu_noburn, mu_burn) on LD1 with mu_burn > mu_noburn;
    scores at or above threshold classify as Burn.
    """

    direction: np.ndarray
    class_means_ld: tuple[float, float]
    threshold: float
    priors: tuple[float, float]
    ridge: float

    def __post_init__(self):
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        object.__setattr__(self, "class_means_ld", tuple(float(m) for m in self.class_means_ld))
        object.__setattr__(self, "priors", tuple(float(p) for p in self.priors))

    @property
    def n_components(self) -> int:
        return int(self.direction.size)

    @property
    def mu_noburn(self) -> float:
        return self.class_means_ld[0]

    @property
    def mu_burn(self) -> float:
        return self.class_means_ld[1]

    def validate(self) -> None:
        if abs(float(np.linalg.norm(self.direction)) - 1.0) > 1e-12:
            raise ValueError("direction must have unit norm")
        if not self.mu_burn > self.mu_noburn:
            raise ValueError("LD1 must increase with wear (mu_burn > mu_noburn)")
        p_n, p_b = self.priors
        if not (0 < p_n < 1 and 0 < p_b < 1 and abs(p_n + p_b - 1) <= 1e-9):
            raise ValueError("priors must lie in (0, 1) and sum to 1")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")


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


def fit_lda(
    scores,
    labels,
    priors: tuple[float, float] | None = None,
    ridge: float = DEFAULT_RIDGE,
) -> LdaModel:
    """Fit the Fisher discriminant to an n x k score matrix and class labels.

    Sw uses the pooled (n - 2) denominator and is regularized as
    Sw + ridge * (trace(Sw) / k) * I before inversion.  priors default to
    the training class proportions; the threshold is the projected-mean
    midpoint shifted by ln(p_noburn / p_burn) * s2_pooled / (mu_burn - mu_noburn).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1:
        scores = scores[:, None]
    n, k = scores.shape
    noburn, burn = _split_classes(scores, labels)
    if ridge < 0:
        raise ValueError("ridge must be non-negative")

    mu_n = noburn.mean(axis=0)
    mu_b = burn.mean(axis=0)
    centered_n = noburn - mu_n
    centered_b = burn - mu_b
    sw = (centered_n.T @ centered_n + centered_b.T @ centered_b) / (n - 2)
    sw_reg = sw + ridge * (np.trace(sw) / k) * np.eye(k)

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

    direction = raw / np.linalg.norm(raw)
    mu_b_ld = float(direction @ mu_b)
    mu_n_ld = float(direction @ mu_n)
    if mu_b_ld < mu_n_ld:  # orient LD1 to increase with wear
        direction = -direction
        mu_b_ld, mu_n_ld = -mu_b_ld, -mu_n_ld

    if priors is None:
        priors = (len(noburn) / n, len(burn) / n)
    p_n, p_b = (float(priors[0]), float(priors[1]))
    if not (p_n > 0 and p_b > 0):
        raise ValueError("priors must be positive")
    total = p_n + p_b
    p_n, p_b = p_n / total, p_b / total

    proj_n = noburn @ direction
    proj_b = burn @ direction
    ss_within = float(np.sum((proj_n - proj_n.mean()) ** 2) + np.sum((proj_b - proj_b.mean()) ** 2))
    s2_pooled = ss_within / (n - 2)
    threshold = 0.5 * (mu_n_ld + mu_b_ld) + math.log(p_n / p_b) * s2_pooled / (mu_b_ld - mu_n_ld)

    model = LdaModel(
        direction=direction,
        class_means_ld=(mu_n_ld, mu_b_ld),
        threshold=float(threshold),
        priors=(p_n, p_b),
        ridge=float(ridge),
    )
    model.validate()
    return model


def ld1_score(model: LdaModel, scores: np.ndarray):
    """Discriminant score dot(direction, scores); accepts a vector or row stack."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape[-1] != model.n_components:
        raise DimensionMismatch(
            f"expected {model.n_components} score components, got {scores.shape[-1]}"
        )
    return scores @ model.direction


def classify(model: LdaModel, scores: np.ndarray):
    """(ld1, labels) for one score vector or an n x k stack, labels shaped like ld1.

    The one decision rule: Burn exactly when ld1 >= threshold, so ties are Burn.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim not in (1, 2):
        raise DimensionMismatch("classify takes a score vector or a stack of score rows")
    ld1 = ld1_score(model, scores)
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
    ss_within = float(np.sum((proj_n - proj_n.mean()) ** 2) + np.sum((proj_b - proj_b.mean()) ** 2))
    within = ss_within / (scores.shape[0] - 2)
    if within == 0.0:
        return math.inf if between > 0 else 0.0
    return float(between / within)
