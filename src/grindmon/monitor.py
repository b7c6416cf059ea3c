"""Streaming per-unit health evaluation and model persistence.

Each observed trace is scored on its own time base: the PCA model is pulled
back through the interpolation that `resample` would apply, so the trace's
powers go straight into the scores and then `classify`.  Its LD1 score
drives a three-state machine Healthy -> Warning -> Burn through the pure
`_step`.  States never move backward within a run: wear is irreversible for
one wheel, and a fresh wheel gets a fresh MonitorState.  The machine advances
at most one state per observation, so a Warning alert always lands before the
state can escalate to Burn.  observe has no input rule of its own: the gate
that `resample` uses refuses a trace whose scoring could overflow.

A trained model ships as a single self-contained text document (canonical
JSON: sorted keys, shortest round-trip floats), so save -> load -> save is
byte-identical and a deployed bundle is one portable file.  Loading is
strict: an unknown field or format version raises VersionMismatch, a wrong
type or a non-finite value raises SchemaError, and fields that disagree with
each other raise CorruptModel.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, index
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CorruptModel, SchemaError, VersionMismatch
from .lda import LdaModel, classify
from .pca import PcaModel
from .traces import (
    PowerTrace,
    _check_scorable,
    _is_integer,
    _pull_back,
    _real,
    _reduce_through_init,
    _tuple,
    power_limit,
)

FORMAT_VERSION = 1

HEALTHY = "Healthy"
WARNING = "Warning"
BURN = "Burn"
STATE_ORDER = {HEALTHY: 0, WARNING: 1, BURN: 2}

# The v1 model file, one row per field: its JSON kind and the attribute path
# of its value in a ModelBundle.  A kind is int, str, or a tuple of array
# lengths for finite numbers: () a number, (None,) a non-empty array, (2,)
# an array of exactly 2, (None, None) non-empty equal-length rows.  Only
# format_version has no place in a bundle.
_FIELDS = {
    "class_means_ld": ((2,), "lda.class_means_ld"),
    "direction": ((None,), "lda.direction"),
    "format_version": (int, None),
    "hold_count": (int, "monitor_config.hold_count"),
    "loadings": ((None, None), "pca.loadings"),
    "mean": ((None,), "pca.mean"),
    "priors": ((2,), "lda.priors"),
    "resample_length": (int, "resample_length"),
    "ridge": ((), "lda.ridge"),
    "singular_values": ((None,), "pca.singular_values"),
    "threshold": ((), "lda.threshold"),
    "training_fingerprint": (str, "training_fingerprint"),
    "warning_fraction": ((), "monitor_config.warning_fraction"),
}
MODEL_FIELDS = tuple(sorted(_FIELDS))


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
        fraction = _real(self.warning_fraction, "warning_fraction")
        if not 0.0 < fraction < 1.0:
            raise ValueError("warning_fraction must lie strictly in (0, 1)")
        object.__setattr__(self, "warning_fraction", fraction)
        hold = self.hold_count
        if not _is_integer(hold) or hold < 1:
            raise ValueError(f"hold_count must be a positive integer, got {hold!r}")

    __reduce__ = _reduce_through_init


@dataclass(frozen=True)
class ModelBundle:
    """Everything a deployed monitor needs: alignment length, PCA, LDA, limits.

    When made, a bundle checks that its parts, each checked when it was
    made, fit together.
    """

    resample_length: int
    pca: PcaModel
    lda: LdaModel
    monitor_config: MonitorConfig
    training_fingerprint: str

    def __post_init__(self):
        parts = (self.pca, self.lda, self.monitor_config)
        if not all(map(isinstance, parts, (PcaModel, LdaModel, MonitorConfig))):
            raise ValueError("a bundle needs a PcaModel, an LdaModel and a MonitorConfig")
        if not _is_integer(self.resample_length) or not isinstance(self.training_fingerprint, str):
            raise ValueError("resample_length must be an integer and training_fingerprint a string")
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
        limit = power_limit(self.resample_length)
        if not np.abs(self.pca.mean).max() <= limit:
            raise CorruptModel(
                f"PCA mean exceeds {limit!r} in magnitude, so scoring could overflow"
            )

    __reduce__ = _reduce_through_init

    def warning_limit(self) -> float:
        mu_n = self.lda.mu_noburn
        return mu_n + self.monitor_config.warning_fraction * (self.lda.threshold - mu_n)


class MonitorEvent(NamedTuple):
    """One observation's outcome; a named tuple, so it also reads as a tuple."""

    unit_id: str
    ld1: float
    label: str
    prev_state: str
    state: str
    alert: bool
    post_failure: bool = False


class History(Sequence):
    """Immutable sequence of (unit_id, ld1, label, state) records.

    A view of the first n items of a list that every snapshot along one
    chain shares.  It reads, hashes, prints and compares equal like the
    tuple of those n items.  Items past n in the shared list belong to later
    snapshots, so this view never changes.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, records: Iterable = ()):
        self._items = list(records)
        self._n = len(self._items)

    def appended(self, record) -> History:
        """This history plus one record; O(1) at the chain's tip.

        From an older snapshot, whose successor already took the next slot,
        the prefix is copied first.  Re-reading the slot after the append
        also covers two threads appending to the same tip.
        """
        items, n = self._items, self._n
        if len(items) == n:
            items.append(record)
            if items[n] is record:
                return _view(items, n + 1)
        return _view([*items[:n], record], n + 1)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self._items[i] for i in range(*key.indices(self._n)))
        i = index(key)
        if not -self._n <= i < self._n:
            raise IndexError("history index out of range")
        return self._items[i % self._n]

    def __iter__(self):
        return islice(self._items, self._n)

    def _tuple(self) -> tuple:
        return tuple(self._items[: self._n])

    def __eq__(self, other):
        if isinstance(other, History):
            return self._n == other._n and self._tuple() == other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self):
        return repr(self._tuple())

    def __reduce__(self):
        return History, (self._tuple(),)


def _view(items: list, n: int) -> History:
    view = object.__new__(History)
    view._items, view._n = items, n
    return view


@dataclass(frozen=True)
class MonitorState:
    """Immutable monitor snapshot; observe() maps old state to new state.

    consecutive_above counts successive observations at or above the limit
    guarding the next state.  history holds one (unit_id, ld1, label, state)
    record per observation and behaves as a tuple.  It is a History: a
    prefix view of one list that every snapshot along a chain shares, so
    observe() appends to a chain's newest state in O(1) time, and observing
    from an older snapshot copies that snapshot's records first.  No
    existing state's history ever changes.
    """

    state: str
    warning_limit: float
    consecutive_above: int = 0
    history: History = field(default_factory=History)

    def __post_init__(self):
        if self.state not in (HEALTHY, WARNING, BURN):  # an unhashable state is unknown too
            raise ValueError(f"unknown state {self.state!r}")
        limit = _real(self.warning_limit, "warning_limit")
        if not math.isfinite(limit):
            raise ValueError(f"warning_limit must be finite, got {limit!r}")
        object.__setattr__(self, "warning_limit", limit)
        counter = self.consecutive_above
        if not _is_integer(counter) or counter < 0:
            raise ValueError(f"consecutive_above must be a non-negative integer, got {counter!r}")
        if type(self.history) is not History:
            object.__setattr__(self, "history", History(_tuple(self.history, "history")))


def start_monitor(bundle: ModelBundle) -> MonitorState:
    """Fresh Healthy state for one wheel's run against this bundle."""
    limit = bundle.warning_limit()
    if not bundle.lda.mu_noburn < limit < bundle.lda.threshold:
        raise CorruptModel(
            "warning limit must fall between the healthy mean and the threshold;"
            " the bundle's threshold does not sit above its healthy-class mean"
        )
    return MonitorState(state=HEALTHY, warning_limit=limit)


def _next_state(name: str, warning_limit: float, counter: int, history: History) -> MonitorState:
    """observe's next MonitorState, from values it took from a checked state or built itself.

    It skips the constructor's checks, which those values already meet.
    """
    state = object.__new__(MonitorState)
    fields = state.__dict__
    fields["state"], fields["warning_limit"] = name, warning_limit
    fields["consecutive_above"], fields["history"] = counter, history
    return state


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


# observe's one-slot memo: (times, bundle, P, c) for the last time base it
# scored.  One tuple, replaced in one assignment and read once, so a reader
# never pairs one trace's times with another's P.
_pulled_back = (None, None, None, None)


def _pull_back_model(times: np.ndarray, bundle: ModelBundle, memo: tuple) -> tuple:
    """The memo for (times, bundle): P = A^T loadings and c = -mean @ loadings.

    c depends on the bundle alone, and times equal to the memo's, in a
    distinct array, reuse its P too; the last samples are compared first,
    so a new time base rarely pays for a full comparison.
    """
    global _pulled_back
    pca = bundle.pca
    if memo[1] is not bundle:
        memo = (times, bundle, _pull_back(times, pca.loadings), -(pca.mean @ pca.loadings))
    elif memo[0][-1] == times[-1] and np.array_equal(memo[0], times):
        memo = (times, bundle, memo[2], memo[3])
    else:
        memo = (times, bundle, _pull_back(times, pca.loadings), memo[3])
    _pulled_back = memo
    return memo


def observe(
    state: MonitorState, bundle: ModelBundle, trace: PowerTrace
) -> tuple[MonitorEvent, MonitorState]:
    """Score one trace and advance the health state machine by `_step`.

    The PCA scores are (A p - m) @ W, where A p is `resample`'s linear
    interpolation of the powers p, m the mean and W the loadings; observe
    computes them as p @ P + c, with P = A^T W and c = -m @ W built once per
    (times array, bundle) and kept in a one-slot memo.  The memo only saves
    the build, so a score does not depend on it; a stream whose traces
    share one read-only times array is scored fastest.  The scores agree
    with resample -> project up to rounding, about 1e-14 on LD1.

    Observations after Burn are accepted but flagged post-failure.  A trace
    that `resample`'s gate refuses raises its UnscorableTrace, and the state
    does not move; any trace it accepts scores to a finite LD1 against any
    bundle, since a bundle checks itself when made.
    """
    _check_scorable(trace, bundle.resample_length)
    times = trace.times
    memo = _pulled_back
    if memo[0] is not times or memo[1] is not bundle:
        memo = _pull_back_model(times, bundle, memo)
    lda = bundle.lda
    ld1, label = classify(lda, trace.powers @ memo[2] + memo[3])
    prev = state.state
    name, counter = _step(state, ld1, lda.threshold, bundle.monitor_config.hold_count)
    unit_id = trace.unit_id
    event = MonitorEvent(unit_id, ld1, label, prev, name, name != prev, prev == BURN)
    history = state.history.appended((unit_id, ld1, label, name))
    return event, _next_state(name, state.warning_limit, counter, history)


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
    doc = {}
    for name, (kind, place) in _FIELDS.items():
        value = FORMAT_VERSION if place is None else attrgetter(place)(bundle)
        doc[name] = kind(value) if kind in (int, str) else np.asarray(value, dtype=float).tolist()
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_model(bundle: ModelBundle, sink) -> None:
    """Write the bundle to a binary file object or a path."""
    payload = model_to_json(bundle).encode("utf-8")
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        Path(sink).write_bytes(payload)


def _is_numbers(value, depth: int) -> bool:
    """Whether value is a JSON number, or non-empty lists of them nested depth deep."""
    items = [value]
    for _ in range(depth):
        if not all(type(v) is list and v for v in items):
            return False
        items = [x for v in items for x in v]
    return {type(v) for v in items} <= {int, float}


def _read(name: str, kind, value):
    """One field's JSON value checked against its kind in _FIELDS.

    Types match exactly, so JSON true and false (bool) are never numbers.
    """
    if kind in (int, str):
        if type(value) is not kind:
            raise SchemaError(name, f"{name} must be {'an integer' if kind is int else 'a string'}")
        return value
    if not _is_numbers(value, len(kind)):
        what = ("a number", "a non-empty array of numbers", "an array of non-empty rows of numbers")
        raise SchemaError(name, f"{name} must be {what[len(kind)]}")
    try:
        arr = np.array(value, dtype=float)
    except ValueError:  # numpy >= 1.24 refuses ragged rows
        raise SchemaError(name, f"{name} rows must have equal length") from None
    except OverflowError:  # an integer literal beyond float range
        raise SchemaError(name, f"{name} must contain only finite values") from None
    if any(n is not None and n != m for n, m in zip(kind, arr.shape)):
        raise SchemaError(name, f"{name} must hold exactly {kind[0]} values")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(name, f"{name} must contain only finite values")
    return arr if kind else float(arr)


def load_model(source) -> ModelBundle:
    """Rebuild a bundle from a binary file object, bytes, or a path.

    Rejects, never repairs: errors follow the policy in the module docstring.
    """
    if hasattr(source, "read"):
        raw = source.read()
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raw = Path(source).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
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

    # format_version is read too: true and 1.0 equal 1 but are not the integer 1
    parts: dict[str, dict] = {"": {}, "pca": {}, "lda": {}, "monitor_config": {}}
    for name, (kind, place) in _FIELDS.items():
        value = _read(name, kind, doc[name])
        if place is not None:
            owner, _, attr = place.rpartition(".")
            parts[owner][attr] = value
    try:  # each constructor checks its own part; a bad config is named first
        return ModelBundle(
            monitor_config=MonitorConfig(**parts["monitor_config"]),
            pca=PcaModel(**parts["pca"], n_train=None, explained_variance_ratio=None),
            lda=LdaModel(**parts["lda"]),
            **parts[""],
        )
    except (ValueError, CorruptModel) as exc:
        raise CorruptModel(f"model file is internally inconsistent: {exc}") from None
