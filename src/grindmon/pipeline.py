"""End-to-end fitting, batch prediction, and score reporting.

Glue between the trace/manifest layer and the PCA + discriminant models:
fit a full bundle from a labeled campaign, score any campaign against a
bundle, and tabulate per-unit scores with wear-trend diagnostics.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ManifestError
from .lda import DEFAULT_RIDGE, HealthVerdict, classify, fit_lda
from .monitor import ModelBundle, MonitorConfig
from .pca import fit_pca, project, truncate
from .traces import (
    LABEL_BURN,
    LABEL_NOBURN,
    CampaignManifest,
    build_matrix,
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


def _require_labels(manifest: CampaignManifest) -> list[str]:
    labels = []
    for i, entry in enumerate(manifest.entries, start=1):
        label = entry.label
        if label is None:
            raise ManifestError(
                f"row {i} (unit {entry.unit_id}) has no burn_rank; "
                "fitting needs every unit labeled"
            )
        labels.append(label)
    return labels


def fit_bundle(
    manifest: CampaignManifest,
    resample_length: int = 512,
    components: int | None = None,
    variance_target: float | None = None,
    priors: tuple[float, float] | None = None,
    ridge: float = DEFAULT_RIDGE,
    monitor_config: MonitorConfig = MonitorConfig(),
) -> tuple[ModelBundle, FitSummary]:
    """Fit PCA then the burn discriminant on a fully labeled campaign.

    Component count comes from `components` when given, otherwise from the
    smallest count reaching `variance_target` (default 0.95) cumulative
    variance, capped at n - 2 so the two-class scatter stays estimable.
    """
    if components is not None and variance_target is not None:
        raise ValueError("pass components or variance_target, not both")
    labels = _require_labels(manifest)
    matrix = build_matrix(manifest, resample_length)
    X = matrix.values
    n = X.shape[0]

    if components is not None:
        pca = fit_pca(X, int(components))
    else:
        target = DEFAULT_VARIANCE_TARGET if variance_target is None else float(variance_target)
        pca = fit_pca(X, target)
        pca = truncate(pca, min(pca.n_components, max(1, n - 2)))

    scores = project(pca, X)
    lda = fit_lda(scores, labels, priors=priors, ridge=ridge)
    bundle = ModelBundle(
        resample_length=resample_length,
        pca=pca,
        lda=lda,
        monitor_config=monitor_config,
        training_fingerprint=manifest.fingerprint,
    )
    bundle.validate()
    summary = FitSummary(
        n_observations=n,
        n_samples_per_trace=resample_length,
        n_components=pca.n_components,
        cumulative_variance=float(np.sum(pca.explained_variance_ratio)),
        n_noburn=labels.count(LABEL_NOBURN),
        n_burn=labels.count(LABEL_BURN),
        threshold=lda.threshold,
        warning_limit=bundle.warning_limit(),
    )
    return bundle, summary


def _score_campaign(bundle: ModelBundle, manifest: CampaignManifest) -> tuple[np.ndarray, ...]:
    """PCA scores (n x k), LD1 and labels for every unit, in manifest order."""
    scores = project(bundle.pca, build_matrix(manifest, bundle.resample_length).values)
    return (scores, *classify(bundle.lda, scores))


def predict_campaign(bundle: ModelBundle, manifest: CampaignManifest) -> list[HealthVerdict]:
    """Score every unit in manifest order against a fitted bundle."""
    _, ld1, labels = _score_campaign(bundle, manifest)
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
    scores, ld1, labels = _score_campaign(bundle, manifest)
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
    """Flat CSV table of the report, one row per unit in campaign order."""
    buf = io.StringIO()
    pc_cols = [f"pc_{j + 1}" for j in range(report.n_components)]
    buf.write(
        ",".join(
            ["obs_index", "unit_id", "wheel_id", "parts_ground", "label", "predicted"]
            + pc_cols
            + ["ld1", "threshold", "warning_limit"]
        )
        + "\n"
    )
    for i in range(len(report.unit_ids)):
        row = [
            str(i + 1),
            report.unit_ids[i],
            report.wheel_ids[i],
            str(report.parts_ground[i]),
            report.labels[i] or "",
            report.predicted[i],
        ]
        row += [repr(float(v)) for v in report.scores[i]]
        row += [
            repr(float(report.ld1[i])),
            repr(float(report.threshold)),
            repr(float(report.warning_limit)),
        ]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
