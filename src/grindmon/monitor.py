"""Streaming per-unit health evaluation and model persistence.

Each observed trace runs resample -> project -> classify, and its LD1 score
drives a three-state machine Healthy -> Warning -> Burn through the pure
`_step`.  States never move backward within a run: wear is irreversible for
one wheel, and a fresh wheel gets a fresh MonitorState.  The machine advances
at most one state per observation, so a Warning alert always lands before the
state can escalate to Burn.

A trained model ships as a single self-contained text document (canonical
JSON: sorted keys, shortest round-trip floats), so save -> load -> save is
byte-identical and a deployed bundle is one portable file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptModel, SchemaError, VersionMismatch
from .lda import LdaModel, classify
from .pca import PcaModel, project
from .traces import PowerTrace, resample

FORMAT_VERSION = 1

HEALTHY = "Healthy"
WARNING = "Warning"
BURN = "Burn"
STATE_ORDER = {HEALTHY: 0, WARNING: 1, BURN: 2}

MODEL_FIELDS = (
    "class_means_ld",
    "direction",
    "format_version",
    "hold_count",
    "loadings",
    "mean",
    "priors",
    "resample_length",
    "ridge",
    "singular_values",
    "threshold",
    "training_fingerprint",
    "warning_fraction",
)


@dataclass(frozen=True)
class MonitorConfig:
    """Control-limit placement and debounce for the state machine.

    warning_fraction places the warning limit between the healthy-class mean
    and the decision threshold; hold_count is how many consecutive crossings
    are required before the state changes.
    """

    warning_fraction: float = 0.8
    hold_count: int = 1

    def __post_init__(self):
        if not 0.0 < self.warning_fraction < 1.0:
            raise ValueError("warning_fraction must lie strictly in (0, 1)")
        if not isinstance(self.hold_count, (int, np.integer)) or self.hold_count < 1:
            raise ValueError("hold_count must be a positive integer")


@dataclass(frozen=True)
class ModelBundle:
    """Everything a deployed monitor needs: alignment length, PCA, LDA, limits."""

    resample_length: int
    pca: PcaModel
    lda: LdaModel
    monitor_config: MonitorConfig
    training_fingerprint: str

    def validate(self) -> None:
        self.pca.validate()
        self.lda.validate()
        if self.pca.n_variables != self.resample_length:
            raise CorruptModel(
                f"PCA has {self.pca.n_variables} variables but resample_length"
                f" is {self.resample_length}"
            )
        if self.lda.n_components != self.pca.n_components:
            raise CorruptModel(
                f"LDA direction has {self.lda.n_components} components but PCA"
                f" keeps {self.pca.n_components}"
            )

    def warning_limit(self) -> float:
        mu_n = self.lda.mu_noburn
        return mu_n + self.monitor_config.warning_fraction * (self.lda.threshold - mu_n)


@dataclass(frozen=True)
class MonitorEvent:
    unit_id: str
    ld1: float
    label: str
    prev_state: str
    state: str
    alert: bool
    post_failure: bool = False


@dataclass(frozen=True)
class MonitorState:
    """Immutable monitor snapshot; observe() maps old state to new state.

    consecutive_above counts successive observations at or above the limit
    guarding the next state.  history is append-only.
    """

    state: str
    warning_limit: float
    consecutive_above: int = 0
    history: tuple[tuple[str, float, str, str], ...] = ()

    def __post_init__(self):
        if self.state not in STATE_ORDER:
            raise ValueError(f"unknown state {self.state!r}")


def start_monitor(bundle: ModelBundle) -> MonitorState:
    """Fresh Healthy state for one wheel's run against this bundle."""
    limit = bundle.warning_limit()
    if not bundle.lda.mu_noburn < limit < bundle.lda.threshold:
        raise CorruptModel(
            "warning limit must fall between the healthy mean and the threshold;"
            " the bundle's threshold does not sit above its healthy-class mean"
        )
    return MonitorState(state=HEALTHY, warning_limit=limit)


def _step(state: MonitorState, ld1: float, threshold: float, hold_count: int) -> tuple[str, int]:
    """Next state name and hold counter after one LD1 score.

    Burn requires hold_count consecutive scores at or above the decision
    threshold while in Warning; Warning requires the same count at or above
    the warning limit while in Healthy.  Burn is absorbing.
    """
    if state.state == BURN:
        return BURN, state.consecutive_above
    limit = state.warning_limit if state.state == HEALTHY else threshold
    counter = state.consecutive_above + 1 if ld1 >= limit else 0
    if counter >= hold_count:
        return (WARNING if state.state == HEALTHY else BURN), 0
    return state.state, counter


def observe(
    state: MonitorState, bundle: ModelBundle, trace: PowerTrace
) -> tuple[MonitorEvent, MonitorState]:
    """Score one trace and advance the health state machine by `_step`.

    Observations after Burn are accepted but flagged post-failure.
    """
    scores = project(bundle.pca, resample(trace, bundle.resample_length))
    ld1, label = classify(bundle.lda, scores)
    ld1, label = float(ld1), str(label)
    prev = state.state
    new_state_name, counter = _step(
        state, ld1, bundle.lda.threshold, bundle.monitor_config.hold_count
    )
    event = MonitorEvent(
        unit_id=trace.unit_id,
        ld1=ld1,
        label=label,
        prev_state=prev,
        state=new_state_name,
        alert=new_state_name != prev,
        post_failure=prev == BURN,
    )
    new_state = MonitorState(
        state=new_state_name,
        warning_limit=state.warning_limit,
        consecutive_above=counter,
        history=state.history + ((trace.unit_id, ld1, label, new_state_name),),
    )
    return event, new_state


def format_event(event: MonitorEvent) -> str:
    """One event as a single JSON line: unit_id, ld1 (6 significant digits), class, state, alert."""
    record = {
        "unit_id": event.unit_id,
        "ld1": float(f"{event.ld1:.6g}"),
        "class": event.label,
        "state": event.state,
        "alert": event.alert,
    }
    return json.dumps(record, separators=(",", ":"))


# --- persistence ---


def model_to_json(bundle: ModelBundle) -> str:
    """Canonical text form: fixed field set, sorted keys, shortest floats."""
    bundle.validate()
    doc = {
        "class_means_ld": [float(m) for m in bundle.lda.class_means_ld],
        "direction": [float(v) for v in bundle.lda.direction],
        "format_version": FORMAT_VERSION,
        "hold_count": int(bundle.monitor_config.hold_count),
        "loadings": [[float(v) for v in row] for row in bundle.pca.loadings],
        "mean": [float(v) for v in bundle.pca.mean],
        "priors": [float(p) for p in bundle.lda.priors],
        "resample_length": int(bundle.resample_length),
        "ridge": float(bundle.lda.ridge),
        "singular_values": [float(v) for v in bundle.pca.singular_values],
        "threshold": float(bundle.lda.threshold),
        "training_fingerprint": str(bundle.training_fingerprint),
        "warning_fraction": float(bundle.monitor_config.warning_fraction),
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_model(bundle: ModelBundle, sink) -> None:
    """Write the bundle to a binary file object or a path."""
    payload = model_to_json(bundle).encode("utf-8")
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        Path(sink).write_bytes(payload)


def _as_float(doc: dict, name: str) -> float:
    v = doc[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(name, f"{name} must be a number")
    v = float(v)
    if not np.isfinite(v):
        raise SchemaError(name, f"{name} must be finite")
    return v


def _as_int(doc: dict, name: str) -> int:
    v = doc[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(name, f"{name} must be an integer")
    return v


def _as_vector(doc: dict, name: str) -> np.ndarray:
    v = doc[name]
    if not isinstance(v, list) or not v or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        raise SchemaError(name, f"{name} must be a non-empty array of numbers")
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(name, f"{name} must contain only finite values")
    return arr


def _as_matrix(doc: dict, name: str) -> np.ndarray:
    v = doc[name]
    if not isinstance(v, list) or not v or not all(isinstance(row, list) for row in v):
        raise SchemaError(name, f"{name} must be an array of rows")
    width = len(v[0])
    if width == 0 or any(len(row) != width for row in v):
        raise SchemaError(name, f"{name} rows must be non-empty and equal length")
    for row in v:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise SchemaError(name, f"{name} must contain only numbers")
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(name, f"{name} must contain only finite values")
    return arr


def load_model(source) -> ModelBundle:
    """Rebuild a bundle from a binary file object, bytes, or a path.

    Rejects unknown format versions and unknown fields; structural damage
    raises SchemaError and cross-field inconsistency raises CorruptModel.
    """
    if hasattr(source, "read"):
        raw = source.read()
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raw = Path(source).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("document", f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document", "model file must be a JSON object")

    if "format_version" not in doc:
        raise SchemaError("format_version", "missing format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format_version {doc['format_version']!r}; this build reads {FORMAT_VERSION}"
        )
    unknown = sorted(set(doc) - set(MODEL_FIELDS))
    if unknown:
        raise VersionMismatch(f"unknown fields {unknown}; refusing to read a future format")
    missing = sorted(set(MODEL_FIELDS) - set(doc))
    if missing:
        raise SchemaError(missing[0], f"missing fields {missing}")

    resample_length = _as_int(doc, "resample_length")
    hold_count = _as_int(doc, "hold_count")
    mean = _as_vector(doc, "mean")
    loadings = _as_matrix(doc, "loadings")
    singular_values = _as_vector(doc, "singular_values")
    direction = _as_vector(doc, "direction")
    class_means = _as_vector(doc, "class_means_ld")
    priors = _as_vector(doc, "priors")
    threshold = _as_float(doc, "threshold")
    ridge = _as_float(doc, "ridge")
    warning_fraction = _as_float(doc, "warning_fraction")
    fingerprint = doc["training_fingerprint"]
    if not isinstance(fingerprint, str):
        raise SchemaError("training_fingerprint", "training_fingerprint must be a string")
    if class_means.shape != (2,):
        raise SchemaError("class_means_ld", "class_means_ld must hold exactly 2 values")
    if priors.shape != (2,):
        raise SchemaError("priors", "priors must hold exactly 2 values")

    L, k = loadings.shape
    if L != resample_length or mean.shape != (L,):
        raise CorruptModel("mean/loadings dimensions disagree with resample_length")
    if singular_values.shape != (k,) or direction.shape != (k,):
        raise CorruptModel("singular_values/direction length disagrees with loadings")

    try:
        pca = PcaModel(
            mean=mean,
            loadings=loadings,
            singular_values=singular_values,
            n_train=None,
            explained_variance_ratio=None,
        )
        lda = LdaModel(
            direction=direction,
            class_means_ld=(float(class_means[0]), float(class_means[1])),
            threshold=threshold,
            priors=(float(priors[0]), float(priors[1])),
            ridge=ridge,
        )
        config = MonitorConfig(warning_fraction=warning_fraction, hold_count=hold_count)
        bundle = ModelBundle(
            resample_length=resample_length,
            pca=pca,
            lda=lda,
            monitor_config=config,
            training_fingerprint=fingerprint,
        )
        bundle.validate()
    except (ValueError, CorruptModel) as exc:
        raise CorruptModel(f"model file is internally inconsistent: {exc}") from None
    return bundle
