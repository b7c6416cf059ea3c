"""Independent numpy-only reference for the benchmark's output checks.

It shares no code with grindmon and implements the method from its
definition:

- a trace CSV is a `time_s,power_kw` header and numeric rows;
- a trace is resampled by linear interpolation onto `length` equally spaced
  times spanning its first and last sample, with both end values pinned;
- PCA is an eigendecomposition (`np.linalg.eigh`) of the sample covariance,
  keeping the smallest count of components whose explained variance reaches
  0.95, capped at n - 2, with each loading oriented so that its
  largest-magnitude entry is positive;
- the discriminant is Fisher's direction Sw^-1 (mu_burn - mu_noburn) in
  score space, Sw the pooled within-class covariance plus a ridge of
  1e-8 * trace(Sw) / k, oriented so LD1 grows with wear; the threshold is
  the midpoint of the projected class means shifted by
  ln(p_noburn / p_burn) * s2 / (mu_burn - mu_noburn), with class-proportion
  priors and s2 the pooled within-class variance on LD1;
- the warning limit sits 0.8 of the way from the healthy mean to the
  threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESAMPLE_LENGTH = 512
VARIANCE_TARGET = 0.95
RIDGE = 1e-8
WARNING_FRACTION = 0.8
HEADER = "time_s,power_kw"


def parse_trace_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, powers) from trace CSV text."""
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ValueError(f"expected header {HEADER!r}")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] < 2:
        raise ValueError("a trace needs at least two rows of two fields")
    return rows[:, 0], rows[:, 1]


def read_trace(path) -> tuple[np.ndarray, np.ndarray]:
    return parse_trace_text(Path(path).read_text(encoding="utf-8"))


def read_manifest(path) -> list[tuple[Path, int]]:
    """(trace path, burn rank) per manifest row, paths anchored at the manifest's directory."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [(path.parent / r["trace_file"], int(r["burn_rank"])) for r in rows]


def resample(times: np.ndarray, powers: np.ndarray, length: int = RESAMPLE_LENGTH) -> np.ndarray:
    grid = np.linspace(times[0], times[-1], length)
    out = np.interp(grid, times, powers)
    out[0] = powers[0]
    out[-1] = powers[-1]
    return out


def pca_eigh(X: np.ndarray, target: float = VARIANCE_TARGET):
    """(mean, loadings L x k, explained-variance ratios of all components)."""
    n = X.shape[0]
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    ratios = eigvals / eigvals.sum()
    k = int(np.argmax(np.cumsum(ratios) >= target - 1e-9)) + 1
    k = max(1, min(k, n - 2))
    loadings = eigvecs[:, :k].copy()
    for j in range(k):
        if loadings[np.argmax(np.abs(loadings[:, j])), j] < 0:
            loadings[:, j] *= -1
    return mean, loadings, ratios


def fisher(scores: np.ndarray, burn: np.ndarray, ridge: float = RIDGE):
    """(unit direction, mu_noburn on LD1, mu_burn on LD1, threshold)."""
    n, k = scores.shape
    a, b = scores[~burn], scores[burn]
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    sw = ((a - mu_a).T @ (a - mu_a) + (b - mu_b).T @ (b - mu_b)) / (n - 2)
    sw = sw + ridge * np.trace(sw) / k * np.eye(k)
    w = np.linalg.solve(sw, mu_b - mu_a)
    w = w / np.linalg.norm(w)
    if w @ mu_b < w @ mu_a:
        w = -w
    m_a, m_b = float(w @ mu_a), float(w @ mu_b)
    pa, pb = a @ w, b @ w
    s2 = (np.sum((pa - pa.mean()) ** 2) + np.sum((pb - pb.mean()) ** 2)) / (n - 2)
    p_a, p_b = len(a) / n, len(b) / n
    threshold = 0.5 * (m_a + m_b) + math.log(p_a / p_b) * s2 / (m_b - m_a)
    return w, m_a, m_b, float(threshold)


@dataclass(frozen=True)
class RefModel:
    mean: np.ndarray
    loadings: np.ndarray
    direction: np.ndarray
    mu_noburn: float
    mu_burn: float
    threshold: float

    @property
    def warning_limit(self) -> float:
        return self.mu_noburn + WARNING_FRACTION * (self.threshold - self.mu_noburn)

    def ld1(self, rows: np.ndarray) -> np.ndarray:
        """LD1 of resampled rows (one vector or a stack)."""
        return ((rows - self.mean) @ self.loadings) @ self.direction


def fit(X: np.ndarray, burn: np.ndarray) -> RefModel:
    """Reference model from an n x L resampled matrix and boolean Burn labels."""
    mean, loadings, _ = pca_eigh(X)
    w, m_a, m_b, threshold = fisher((X - mean) @ loadings, np.asarray(burn, dtype=bool))
    return RefModel(mean, loadings, w, m_a, m_b, threshold)


def matrix_from_manifest(path) -> tuple[np.ndarray, np.ndarray]:
    """(resampled n x L matrix, Burn mask) for every row of a manifest."""
    rows = read_manifest(path)
    X = np.array([resample(*read_trace(p)) for p, _ in rows])
    return X, np.array([rank >= 2 for _, rank in rows])


def fit_manifest(path) -> RefModel:
    return fit(*matrix_from_manifest(path))
