"""Power-trace ingestion: parsing, validation, resampling, matrix assembly.

A trace is the motor power (kW) recorded at fixed intervals while one unit
is ground.  Traces of differing duration are aligned onto a fixed number of
variables by linear-interpolation resampling before any statistics are run.
A trace holds no power beyond POWER_LIMIT, so every trace can be scored.
Parsing is strict: bad sensor data is rejected, never repaired.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import operator
import sys
from dataclasses import dataclass, field, fields
from itertools import repeat
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import (
    BadResampleLength,
    CampaignFileError,
    EmptyCampaign,
    GrindmonError,
    InvalidValue,
    MalformedHeader,
    ManifestError,
    NonMonotoneTime,
    NonNumericField,
    TooFewSamples,
)

TRACE_HEADER = "time_s,power_kw"
MANIFEST_HEADER = "trace_file,unit_id,wheel_id,parts_ground,burn_rank"

LABEL_NOBURN = "NoBurn"
LABEL_BURN = "Burn"

DEFAULT_RESAMPLE_LENGTH = 512

# The largest |power| a trace, a model mean or a scored matrix entry may hold,
# in kW.  It lets any of them be scored at any length L without overflow.
# numpy cannot hold 2**60 float64 values in one array, so every grid and
# loadings length has sqrt(L) < 2**30, and POWER_LIMIT * sqrt(L) is below the
# largest float over 4.  A resampled trace x stays within the trace's largest
# |power|, up to rounding; so with every |entry| of a model mean m within
# POWER_LIMIT too, ||x - m||_2 is at most half the largest float.  With
# orthonormal loadings and a unit-norm direction, each PCA score, LD1 and
# every partial sum of either product are at most ||x - m||_2.  The same
# holds for a trace's powers p scored through `_pull_back`'s P = A^T W
# without resampling: each column of P has sum |P[:, c]| <= ||W[:, c]||_1 <=
# sqrt(L), since each row of A holds two weights that sum to 1 and are
# non-negative up to rounding, so every partial sum of p @ P, and c = -m @ W,
# stay within the largest float over 4.
POWER_LIMIT = sys.float_info.max / 2**32


def label_from_rank(burn_rank: int | None) -> str | None:
    """Binary class from the three-level burn ranking (rank >= 2 is Burn)."""
    if burn_rank is None:
        return None
    return LABEL_BURN if burn_rank >= 2 else LABEL_NOBURN


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not, although Python counts it as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _float_array(value, name: str) -> np.ndarray:
    """value as a float array; ValueError, naming it, unless it holds integers or floats.

    Only numpy's integer and float kinds pass: numpy would parse strings
    ("1_0" is 10), read bools as 0 and 1, drop a complex value's imaginary
    part, and convert an object array item by item.  A float array is
    returned as it is, not copied.
    """
    try:
        array = np.asarray(value)
        if array.dtype == np.float64:
            return array
        if array.dtype.kind not in ("i", "u", "f"):
            raise TypeError
        return array.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an array of real numbers") from None


def _read_only(value, name: str) -> np.ndarray:
    """A read-only float copy of value, over a `bytes` object of its own.

    numpy never makes an array over `bytes` writable, so neither a view of
    value taken beforehand nor a later `flags.writeable = True` can change
    the copy; value itself is left as it was.
    """
    array = _float_array(value, name)
    return np.frombuffer(array.tobytes()).reshape(array.shape)


# np.frombuffer keeping its last array, keyed on the exact bytes of a time base,
# so traces made one after another on one time base share one read-only array.
# Bytes, not values, are the key: times -0.0 and 0.0 stay two arrays.
_shared_times = functools.lru_cache(maxsize=1)(np.frombuffer)


def _real(value, name: str) -> float:
    """value as a float; ValueError unless it is a real number in float range (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must lie within float range") from None


def _tuple(value, name: str) -> tuple:
    """tuple(value); ValueError, naming it, if value is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None


def _reduce_through_init(self):
    """`__reduce__` for a checked dataclass: copy and unpickle call its constructor.

    Only init fields are passed; the constructor derives the others again.
    """
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _csv_text(header, rows) -> str:
    """CSV text with LF line ends; a field with a comma or quote is quoted, None is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _check_metadata(parts_ground, burn_rank, **ids) -> None:
    """Reject metadata that a manifest could not carry back unchanged.

    The manifest reader strips every field and reads files with universal
    newlines, so an id with surrounding whitespace, a CR or an LF would come
    back altered; a non-integer count or rank would not come back at all.
    """
    for name, value in ids.items():
        if (not isinstance(value, str) or value != value.strip()
                or "\r" in value or "\n" in value):
            raise ValueError(f"{name} must be a string with no surrounding whitespace"
                             f" or line break, got {value!r}")
    if not _is_integer(parts_ground) or parts_ground < 0:
        raise ValueError(f"parts_ground must be a non-negative integer, got {parts_ground!r}")
    if burn_rank is not None and (not _is_integer(burn_rank) or burn_rank not in (1, 2, 3)):
        raise ValueError(f"burn_rank must be 1, 2, 3 or empty, got {burn_rank!r}")


@dataclass(frozen=True)
class PowerTrace:
    """One unit's power-vs-time series plus provenance metadata.

    times are seconds, strictly increasing; powers are kilowatts, each
    within POWER_LIMIT in magnitude; parts_ground counts units cut by this
    wheel before this one.  Each power step over its time step, and the time
    span, must be finite too, so every value `resample` gives lies, up to
    rounding, between two neighbouring powers, and the trace can be scored
    against any model.  Both arrays are immutable copies (see `_read_only`),
    so the checks made here hold while the trace exists, and a copy or an
    unpickled trace is checked again.
    times come from `_shared_times`: traces made one after another with
    bit-equal times share one array, whatever made them.
    """

    unit_id: str
    wheel_id: str
    parts_ground: int
    burn_rank: int | None
    times: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        times = _float_array(self.times, "times")
        powers = _read_only(self.powers, "powers")
        if times.ndim != 1 or times.shape != powers.shape:  # before np.frombuffer flattens it
            raise ValueError("times and powers must be 1-d arrays of equal length")
        times = _shared_times(times.tobytes())
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "powers", powers)
        if times.size < 2:
            raise TooFewSamples("a trace needs at least 2 samples")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("times must be strictly increasing")
        # np.interp takes these slopes and warns of no overflow.  With times
        # increasing, they and the span are finite exactly when every value is
        # and no step of opposite huge powers or subnormal time step overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = (powers[1:] - powers[:-1]) / (times[1:] - times[:-1])
            span = times[-1] - times[0]
        if not (np.isfinite(slopes).all() and np.isfinite(span)):
            if not (np.isfinite(times).all() and np.isfinite(powers).all()):
                raise ValueError("times and powers must be finite")
            raise ValueError("each power step over its time step, and the time span,"
                             " must be finite")
        largest = float(np.abs(powers).max())
        if not largest <= POWER_LIMIT:
            raise ValueError(f"largest |power| {largest!r} kW exceeds {POWER_LIMIT!r} kW,"
                             " the most a trace can hold to be scored without overflow")
        _check_metadata(self.parts_ground, self.burn_rank,
                        unit_id=self.unit_id, wheel_id=self.wheel_id)

    __reduce__ = _reduce_through_init

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def label(self) -> str | None:
        return label_from_rank(self.burn_rank)


@dataclass(frozen=True)
class ManifestEntry:
    trace_file: str
    unit_id: str
    wheel_id: str
    parts_ground: int
    burn_rank: int | None

    def __post_init__(self):
        _check_metadata(self.parts_ground, self.burn_rank, trace_file=self.trace_file,
                        unit_id=self.unit_id, wheel_id=self.wheel_id)

    @property
    def label(self) -> str | None:
        return label_from_rank(self.burn_rank)


@dataclass(frozen=True)
class CampaignManifest:
    """Ordered list of trace files with per-unit metadata.

    Within one wheel, unit ids are unique and parts_ground never decreases
    (a campaign is recorded in wear order).  base_dir anchors relative
    trace_file paths.
    """

    entries: tuple[ManifestEntry, ...]
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        object.__setattr__(self, "entries", _tuple(self.entries, "entries"))
        if not all(isinstance(e, ManifestEntry) for e in self.entries):
            raise ValueError("entries must be ManifestEntry objects")
        try:
            object.__setattr__(self, "base_dir", Path(self.base_dir))
        except TypeError:
            raise ValueError(f"base_dir must be a path, got {self.base_dir!r}") from None
        seen: dict[tuple[str, str], int] = {}
        last_parts: dict[str, int] = {}
        for i, e in enumerate(self.entries, start=1):
            key = (e.wheel_id, e.unit_id)
            if key in seen:
                raise ManifestError(
                    f"row {i}: unit_id {e.unit_id!r} repeated for wheel {e.wheel_id!r}"
                    f" (first at row {seen[key]})"
                )
            seen[key] = i
            prev = last_parts.get(e.wheel_id)
            if prev is not None and e.parts_ground < prev:
                raise ManifestError(
                    f"row {i}: parts_ground decreases for wheel {e.wheel_id!r}"
                    f" ({prev} -> {e.parts_ground})"
                )
            last_parts[e.wheel_id] = e.parts_ground

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical serialization, independent of file layout."""
        return hashlib.sha256(serialize_manifest_csv(self).encode("utf-8")).hexdigest()

    def labels(self) -> list[str | None]:
        return [e.label for e in self.entries]


@dataclass(frozen=True)
class TraceMatrix:
    """n aligned observations x L resampled power variables, row-linked to metadata."""

    values: np.ndarray
    meta: tuple[ManifestEntry, ...]
    resample_length: int

    def __post_init__(self):
        values = _float_array(self.values, "values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "meta", _tuple(self.meta, "meta"))
        if not all(isinstance(e, ManifestEntry) for e in self.meta):
            raise ValueError("meta must be ManifestEntry objects")
        if not _is_integer(self.resample_length) or self.resample_length < 2:
            raise ValueError(f"resample_length must be an integer of at least 2,"
                             f" got {self.resample_length!r}")
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        n, L = values.shape
        if n < 1:
            raise ValueError("matrix needs at least one row")
        if L != self.resample_length:
            raise ValueError("column count must equal resample_length")
        if len(self.meta) != n:
            raise ValueError("one metadata entry per row required")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite")


@functools.lru_cache(maxsize=1)
def _time_column(text: str) -> np.ndarray:
    """The comma-joined time fields `text` as a float array.

    The last column is kept, keyed on its exact text, so the traces of a
    fixed-rate campaign convert their times once.  Callers must not write
    to it; PowerTrace copies it.
    """
    return np.fromiter(map(float, text.split(",")), float)


def parse_trace_csv(
    text: str,
    *,
    unit_id: str = "",
    wheel_id: str = "",
    parts_ground: int = 0,
    burn_rank: int | None = None,
) -> PowerTrace:
    """Parse a `time_s,power_kw` CSV stream into a PowerTrace.

    Accepts LF or CRLF line endings and a `.` decimal separator only.  Each
    field is whatever Python's `float()` accepts, surrounding whitespace
    included (so `1_0`, `+1` and `1e5` parse; `0x10`, `1.0d0` and an empty
    field do not).  Rejects non-numeric fields, non-finite values, a power
    beyond POWER_LIMIT in magnitude, non-monotone time, and a row whose power
    step over its time step, or whose time span from the first row, is not
    finite; row numbers in errors are 1-based over data rows.

    The data rows are split into fields once, with one `str.split` over
    their join; when every row holds exactly one comma, the two columns are
    converted straight into arrays and PowerTrace checks them.  Anything
    that path rejects goes to a row-by-row loop, which alone raises the
    row-numbered errors.  That path's times come from `_time_column`, so a
    time column equal to the last one parsed is not converted again; that
    traces share one times array is PowerTrace's doing.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise MalformedHeader(f"expected header {TRACE_HEADER!r}")

    meta = dict(unit_id=unit_id, wheel_id=wheel_id, parts_ground=parts_ground,
                burn_rank=burn_rank)
    body = lines[1:]
    n = len(body)
    fields = ",".join(body).split(",")
    # 2n fields, and a comma in every row, is exactly one comma per row
    if len(fields) == 2 * n and all(map(operator.contains, body, repeat(","))):
        try:
            times_arr = _time_column(",".join(fields[0::2]))
            powers_arr = np.fromiter(map(float, fields[1::2]), float, n)
            return PowerTrace(times=times_arr, powers=powers_arr, **meta)
        except (ValueError, TooFewSamples):
            pass

    times: list[float] = []
    powers: list[float] = []
    for row, line in enumerate(body, start=1):
        line = line.strip()
        parts = line.split(",")
        if len(parts) != 2:
            raise NonNumericField(row, f"data row {row}: expected 2 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            p = float(parts[1])
        except ValueError:
            raise NonNumericField(row) from None
        if not (np.isfinite(t) and np.isfinite(p)):
            raise InvalidValue(row)
        if abs(p) > POWER_LIMIT:
            raise InvalidValue(row, f"data row {row}: |power| exceeds {POWER_LIMIT!r} kW")
        if times and t <= times[-1]:
            raise NonMonotoneTime(row)
        if times and not math.isfinite((p - powers[-1]) / (t - times[-1])):
            raise InvalidValue(row, f"data row {row}: power step over time step is not finite")
        if times and not math.isfinite(t - times[0]):
            raise InvalidValue(row, f"data row {row}: time span from the first row is not finite")
        times.append(t)
        powers.append(p)

    if len(times) < 2:
        raise TooFewSamples(f"trace has {len(times)} samples, need at least 2")
    return PowerTrace(times=np.array(times), powers=np.array(powers), **meta)


def _format_column(values: np.ndarray) -> list[str]:
    """Each value in shortest round-trip form, as `repr` of a Python float prints it."""
    return list(map(repr, values.tolist()))


@functools.lru_cache(maxsize=1)
def _formatted_times(data: bytes) -> tuple[str, ...]:
    """`_format_column` of the float64 times in `data`; keeps the last column, by bytes."""
    return tuple(_format_column(np.frombuffer(data)))


def serialize_trace_csv(trace: PowerTrace) -> str:
    """Trace back to CSV text; floats printed in shortest round-trip form.

    A times column equal to the last one written is not formatted again.
    """
    rows = map(",".join, zip(_formatted_times(trace.times.tobytes()),
                             _format_column(trace.powers)))
    return TRACE_HEADER + "\n" + "\n".join(rows) + "\n"


def _check_length(length) -> None:
    """Reject a resample length that is not an integer of at least 2."""
    if not _is_integer(length):
        raise BadResampleLength(f"resample length must be an integer, got {length!r}")
    if length < 2:
        raise BadResampleLength(f"resample length must be >= 2, got {length}")


# np.linspace keeping its last grid, keyed on the exact (t0, t1, length), so the
# traces of a fixed-rate, fixed-length cycle share one grid.  Callers must not
# write to it; it stays writable since np.interp copies a read-only input on
# every call.  0.0 and -0.0 share a key; np.interp reads both grids alike.
_grid = functools.lru_cache(maxsize=1)(np.linspace)


def resample(trace: PowerTrace, length: int) -> np.ndarray:
    """Power linearly interpolated at `length` equally spaced times.

    A length that is not an integer of at least 2 raises BadResampleLength.
    The grid spans [t_first, t_last]; both endpoint
    values are preserved exactly, since np.linspace's ends are those times
    exactly and np.interp returns fp[j] itself where x == xp[j].  The grid
    comes from `_grid`, np.linspace behind a one-entry cache, which reuses
    the previous call's grid when (t_first, t_last, length) repeats; the
    result is always a fresh, writable array.
    """
    _check_length(length)
    times = trace.times
    return np.interp(_grid(times[0], times[-1], length), times, trace.powers)


def _pull_back(times: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A^T rows: `rows` (L x k, one row per grid point) pulled back to n sample times.

    For fixed times, `resample` to L points is a linear map x = A p, whose
    row i holds 1 - f and f at the samples j and j + 1 that bracket grid
    point i.  So resample(trace, L) @ rows equals trace.powers @ _pull_back(
    trace.times, rows) up to rounding, and a trace scores without being
    resampled.  j is the whole part of np.interp of the sample indices on
    `resample`'s grid; f is computed from the times, since the fractional
    part of that index keeps only about 53 - log2(n) bits.  Per column w,
    with r = bincount(j, f w), the result is bincount(j, w) - r plus r moved
    one sample on.  Cost: O(n k + L k).
    """
    n = times.size
    L, k = rows.shape
    grid = _grid(times[0], times[-1], L)
    j = np.interp(grid, times, np.arange(n, dtype=float)).astype(np.intp)
    np.minimum(j, n - 2, out=j)  # the last grid point takes f = 1
    f = (grid - times[j]) / (times[1:] - times[:-1])[j]
    pulled = np.empty((n, k))
    for c in range(k):
        w = rows[:, c]
        right = np.bincount(j, f * w, n)
        pulled[:, c] = np.bincount(j, w, n) - right
        pulled[1:, c] += right[:-1]
    return pulled


def parse_manifest_csv(text: str, base_dir: Path | str = ".") -> CampaignManifest:
    """Parse a campaign manifest.  burn_rank may be empty (unlabeled row)."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [r for r in reader if r]
    except csv.Error as exc:
        raise ManifestError(f"line {reader.line_num}: {exc}") from exc
    if not rows or ",".join(rows[0]).strip() != MANIFEST_HEADER:
        raise ManifestError(f"expected header {MANIFEST_HEADER!r}")
    entries = []
    for i, r in enumerate(rows[1:], start=1):
        if len(r) != 5:
            raise ManifestError(f"row {i}: expected 5 fields, got {len(r)}")
        trace_file, unit_id, wheel_id, parts_s, rank_s = (f.strip() for f in r)
        try:
            parts_ground = int(parts_s)
        except ValueError:
            raise ManifestError(f"row {i}: parts_ground {parts_s!r} is not an integer") from None
        rank: int | None = None
        if rank_s:
            try:
                rank = int(rank_s)
            except ValueError:
                raise ManifestError(f"row {i}: burn_rank {rank_s!r} is not an integer") from None
        try:
            entries.append(ManifestEntry(trace_file, unit_id, wheel_id, parts_ground, rank))
        except ValueError as exc:
            raise ManifestError(f"row {i}: {exc}") from None
    return CampaignManifest(entries=tuple(entries), base_dir=Path(base_dir))


def serialize_manifest_csv(manifest: CampaignManifest) -> str:
    return _csv_text(MANIFEST_HEADER.split(","), (
        (e.trace_file, e.unit_id, e.wheel_id, e.parts_ground, e.burn_rank)
        for e in manifest.entries))


def _read_campaign_file(path: Path, parse):
    """parse(text) of one UTF-8 file; any failure to read or parse it names the path."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, GrindmonError) as exc:  # ValueError: bad UTF-8, a NUL in the path
        raise CampaignFileError(path, exc) from exc


def load_manifest(path: Path | str) -> CampaignManifest:
    path = Path(path)
    return _read_campaign_file(path, lambda text: parse_manifest_csv(text, base_dir=path.parent))


def save_manifest(manifest: CampaignManifest, path: Path | str) -> None:
    Path(path).write_text(serialize_manifest_csv(manifest), encoding="utf-8")


def load_trace(path: Path | str, entry: ManifestEntry | None = None) -> PowerTrace:
    """One trace file through parse_trace_csv (its times may be shared), with manifest metadata."""
    kwargs = {}
    if entry is not None:
        kwargs = dict(
            unit_id=entry.unit_id,
            wheel_id=entry.wheel_id,
            parts_ground=entry.parts_ground,
            burn_rank=entry.burn_rank,
        )
    return _read_campaign_file(
        Path(path), lambda text: parse_trace_csv(text, **kwargs))


def build_matrix(manifest: CampaignManifest, length: int = DEFAULT_RESAMPLE_LENGTH) -> TraceMatrix:
    """Resample every manifest trace to `length` and stack in manifest order.

    Every trace goes through load_trace and parse_trace_csv, so a time
    column that repeats the last one parsed is converted once and shared
    read-only, within and across calls; every trace is still checked in
    full.  A file that does not parse into a trace, one too large to score
    included, raises a CampaignFileError naming it.
    """
    _check_length(length)
    if not manifest.entries:
        raise EmptyCampaign("manifest has no entries")
    rows = np.empty((len(manifest.entries), length))
    for i, entry in enumerate(manifest.entries):
        rows[i] = resample(load_trace(manifest.base_dir / entry.trace_file, entry), length)
    return TraceMatrix(values=rows, meta=manifest.entries, resample_length=length)
