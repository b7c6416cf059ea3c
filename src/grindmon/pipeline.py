"""End-to-end fitting, batch prediction, and score reporting.

fit_matrix and score_matrix hold the statistics on an in-memory trace matrix;
fit_bundle, predict_campaign and build_report load a campaign with
build_matrix and call them.  build_report adds wear-trend diagnostics.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ManifestError, UnscorableTrace
from .lda import DEFAULT_RIDGE, HealthVerdict, classify, fit_lda
from .monitor import ModelBundle, MonitorConfig
from .pca import fit_pca, project, truncate
from .traces import (
    DEFAULT_RESAMPLE_LENGTH,
    LABEL_BURN,
    LABEL_NOBURN,
    CampaignManifest,
    _csv_text,
    build_matrix,
    power_limit,
)

DEFAULT_VARIANCE_TARGET = 0.95


@dataclass(frozen=True)
class FitSummary:
    n_observations: int
    n_samples_per_trace: int
    n_components: int
    cumulative_variance: float
    n_noburn: int
    n_burn: int
    threshold: float
    warning_limit: float


def _overflow_shift(X: np.ndarray) -> int:
    """k such that a fit on X * 2**-k cannot overflow; 0 while max|X| <= B.

    With every |entry| at most B = sqrt(max_float / (4 n L)), a column sum is
    at most n B, and each centred entry at most 2 B, so the sum of the
    squared singular values, ||X - mean||_F**2, is at most n L (2 B)**2 =
    max_float; the scatter sums of the scores are bounded by the same
    norm.  Past B, X * 2**-k holds entries below 1.
    """
    if X.ndim != 2 or not X.size:
        return 0
    n, L = X.shape
    largest = max(float(X.max()), -float(X.min()))
    if not largest > math.sqrt(sys.float_info.max / (4 * n * L)):
        return 0
    return math.frexp(largest)[1]


def fit_matrix(
    X,
    labels,
    training_fingerprint: str,
    components: int | None = None,
    variance_target: float | None = None,
    priors: tuple[float, float] | None = None,
    ridge: float = DEFAULT_RIDGE,
    monitor_config: MonitorConfig = MonitorConfig(),
) -> tuple[ModelBundle, FitSummary]:
    """Fit PCA then the burn discriminant on an n x L trace matrix and its n labels.

    L becomes the bundle's resample length.  The component count is
    `components` when given, else the smallest count reaching
    `variance_target` (default 0.95) cumulative variance, capped at n - 2 so
    the two-class scatter stays estimable.  Reads no files.

    A matrix too large to fit without overflow is fitted as X * 2**-k; the
    mean, singular values, LD1 class means and threshold are then scaled
    back by 2**k, exactly.  Data of ordinary size has k = 0.
    """
    if components is not None and variance_target is not None:
        raise ValueError("pass components or variance_target, not both")
    labels = list(labels)
    X = np.asarray(X, dtype=float)
    shift = _overflow_shift(X)
    X = np.ldexp(X, -shift) if shift else X
    if components is not None:
        pca = fit_pca(X, int(components))
    else:
        target = DEFAULT_VARIANCE_TARGET if variance_target is None else float(variance_target)
        pca = fit_pca(X, target)
        pca = truncate(pca, min(pca.n_components, max(1, pca.n_train - 2)))

    lda = fit_lda(project(pca, X), labels, priors=priors, ridge=ridge)
    if shift:
        pca = dataclasses.replace(pca, mean=np.ldexp(pca.mean, shift),
                                  singular_values=np.ldexp(pca.singular_values, shift))
        lda = dataclasses.replace(lda, class_means_ld=np.ldexp(lda.class_means_ld, shift),
                                  threshold=math.ldexp(lda.threshold, shift))
    bundle = ModelBundle(resample_length=pca.n_variables, pca=pca, lda=lda,
                         monitor_config=monitor_config, training_fingerprint=training_fingerprint)
    summary = FitSummary(
        n_observations=pca.n_train,
        n_samples_per_trace=pca.n_variables,
        n_components=pca.n_components,
        cumulative_variance=float(np.sum(pca.explained_variance_ratio)),
        n_noburn=labels.count(LABEL_NOBURN),
        n_burn=labels.count(LABEL_BURN),
        threshold=lda.threshold,
        warning_limit=bundle.warning_limit(),
    )
    return bundle, summary


def score_matrix(bundle: ModelBundle, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PCA scores (n x k), LD1 and labels for every row of an n x L trace matrix.

    The matrix half of `resample`'s gate: a matrix holding a NaN or an
    |entry| beyond power_limit(bundle.resample_length) raises
    UnscorableTrace naming the first such row, counted from 0.  A
    build_matrix matrix never does.
    """
    X = np.asarray(X, dtype=float)
    limit = power_limit(bundle.resample_length)
    within = np.abs(X) <= limit  # False for NaN
    if not within.all():
        i = int(np.argmin(within.all(axis=-1)))
        largest = np.abs(X[i] if X.ndim > 1 else X).max()
        raise UnscorableTrace(
            f"matrix row {i}: largest |power| {float(largest)!r} kW is not within"
            f" {limit!r} kW, the most it can hold to be scored without overflow"
        )
    scores = project(bundle.pca, X)
    return (scores, *classify(bundle.lda, scores))


def fit_bundle(manifest: CampaignManifest, resample_length: int = DEFAULT_RESAMPLE_LENGTH,
               **options) -> tuple[ModelBundle, FitSummary]:
    """fit_matrix on a fully labeled campaign, resampled to `resample_length`."""
    for i, entry in enumerate(manifest.entries, start=1):
        if entry.label is None:
            raise ManifestError(
                f"row {i} (unit {entry.unit_id}) has no burn_rank; "
                "fitting needs every unit labeled"
            )
    X = build_matrix(manifest, resample_length).values
    return fit_matrix(X, manifest.labels(), manifest.fingerprint, **options)


def predict_campaign(bundle: ModelBundle, manifest: CampaignManifest) -> list[HealthVerdict]:
    """Score every unit in manifest order against a fitted bundle."""
    X = build_matrix(manifest, bundle.resample_length).values
    _, ld1, labels = score_matrix(bundle, X)
    margins = (ld1 - bundle.lda.threshold).tolist()
    rows = zip(manifest.entries, ld1.tolist(), labels.tolist(), margins)
    return [HealthVerdict(e.unit_id, v, label, m) for e, v, label, m in rows]


def confusion_matrix(
    verdicts: list[HealthVerdict], labels: list[str | None]
) -> np.ndarray | None:
    """2x2 counts, rows = actual (NoBurn, Burn), cols = predicted.

    Unlabeled rows are skipped; returns None when nothing is labeled.
    """
    if len(verdicts) != len(labels):
        raise ValueError("verdicts and labels must align")
    order = {LABEL_NOBURN: 0, LABEL_BURN: 1}
    counts = np.zeros((2, 2), dtype=int)
    seen = False
    for verdict, label in zip(verdicts, labels):
        if label is None:
            continue
        counts[order[label], order[verdict.label]] += 1
        seen = True
    return counts if seen else None


@dataclass(frozen=True)
class ScoreReport:
    """Per-unit projections plus wear-trend diagnostics for one campaign."""

    unit_ids: tuple[str, ...]
    wheel_ids: tuple[str, ...]
    parts_ground: tuple[int, ...]
    labels: tuple[str | None, ...]
    predicted: tuple[str, ...]
    scores: np.ndarray        # n x k PCA scores
    ld1: np.ndarray
    threshold: float
    warning_limit: float
    pc_spearman: np.ndarray   # |rho| per component vs observation order
    ld1_spearman: float
    wear_axis: int            # 1-based index of the strongest-trend PC

    @property
    def n_components(self) -> int:
        return self.scores.shape[1]


def _spearman_vs_order(values: np.ndarray) -> float:
    """Spearman's rho of values against their index order.

    Pearson's r of tie-averaged 1-based ranks.  Input with fewer than two
    values or a constant value has no defined rho and gives 0.0.
    """
    if len(values) < 2 or np.all(values == values[0]):
        return 0.0
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float(np.corrcoef(np.arange(1.0, len(values) + 1.0), ranks)[0, 1])


def build_report(bundle: ModelBundle, manifest: CampaignManifest) -> ScoreReport:
    """Project a campaign and rank PCs by monotone association with order.

    The manifest is kept in file order, which campaign manifests guarantee
    is non-decreasing in parts ground per wheel, so rank correlation with
    the observation index reads as correlation with wear.
    """
    X = build_matrix(manifest, bundle.resample_length).values
    scores, ld1, labels = score_matrix(bundle, X)
    pc_rho = np.array([_spearman_vs_order(scores[:, j]) for j in range(scores.shape[1])])
    return ScoreReport(
        unit_ids=tuple(e.unit_id for e in manifest.entries),
        wheel_ids=tuple(e.wheel_id for e in manifest.entries),
        parts_ground=tuple(e.parts_ground for e in manifest.entries),
        labels=tuple(manifest.labels()),
        predicted=tuple(labels.tolist()),
        scores=scores,
        ld1=ld1,
        threshold=bundle.lda.threshold,
        warning_limit=bundle.warning_limit(),
        pc_spearman=np.abs(pc_rho),
        ld1_spearman=abs(_spearman_vs_order(ld1)),
        wear_axis=int(np.argmax(np.abs(pc_rho))) + 1,
    )


def report_to_csv(report: ScoreReport) -> str:
    """Flat CSV table of the report, one row per unit in campaign order.

    An id holding a comma or a quote is quoted, as the csv module reads it.
    """
    header = ["obs_index", "unit_id", "wheel_id", "parts_ground", "label", "predicted",
              *(f"pc_{j + 1}" for j in range(report.n_components)),
              "ld1", "threshold", "warning_limit"]
    limits = (float(report.threshold), float(report.warning_limit))
    columns = (report.unit_ids, report.wheel_ids, report.parts_ground, report.labels,
               report.predicted, report.scores.tolist(), report.ld1.tolist())
    return _csv_text(header, (
        (i, unit, wheel, parts, label, predicted, *pcs, ld1, *limits)
        for i, (unit, wheel, parts, label, predicted, pcs, ld1)
        in enumerate(zip(*columns), start=1)))
