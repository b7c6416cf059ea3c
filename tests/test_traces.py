import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grindmon import (
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    build_matrix,
    label_from_rank,
    load_manifest,
    parse_manifest_csv,
    parse_trace_csv,
    resample,
    save_manifest,
    serialize_manifest_csv,
    serialize_trace_csv,
)
from grindmon.errors import (
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
from grindmon.traces import TRACE_HEADER


def make_trace(times, powers, **kw):
    kw.setdefault("unit_id", "u0")
    kw.setdefault("wheel_id", "w0")
    kw.setdefault("parts_ground", 0)
    kw.setdefault("burn_rank", None)
    return PowerTrace(times=np.asarray(times, float), powers=np.asarray(powers, float), **kw)


# --- trace CSV parsing ---

def test_parse_basic_three_samples():
    trace = parse_trace_csv("time_s,power_kw\n0.00,0.1\n0.05,0.9\n0.10,0.2")
    assert trace.n_samples == 3
    np.testing.assert_allclose(np.diff(trace.times), 0.05)
    np.testing.assert_allclose(trace.powers, [0.1, 0.9, 0.2])


def test_parse_accepts_crlf_and_trailing_newline():
    trace = parse_trace_csv("time_s,power_kw\r\n0.0,1.0\r\n0.05,2.0\r\n")
    assert trace.n_samples == 2


def test_parse_rejects_wrong_header():
    with pytest.raises(MalformedHeader):
        parse_trace_csv("t,p\n0,1\n1,2")


def test_parse_rejects_non_monotone_time():
    with pytest.raises(NonMonotoneTime) as err:
        parse_trace_csv("time_s,power_kw\n0.0,1.0\n0.0,2.0")
    assert err.value.row == 2


def test_parse_rejects_non_numeric_field():
    with pytest.raises(NonNumericField) as err:
        parse_trace_csv("time_s,power_kw\n0.0,1.0\n0.05,abc")
    assert err.value.row == 2


def test_parse_rejects_non_finite_power():
    with pytest.raises(InvalidValue) as err:
        parse_trace_csv("time_s,power_kw\n0.0,1.0\n0.05,nan")
    assert err.value.row == 2
    with pytest.raises(InvalidValue):
        parse_trace_csv("time_s,power_kw\n0.0,1.0\n0.05,inf")


def test_parse_rejects_single_sample():
    with pytest.raises(TooFewSamples):
        parse_trace_csv("time_s,power_kw\n0.0,1.0")


def row_loop_parse(text):
    """The row-by-row parser as it stood before the vectorized fast path."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise MalformedHeader(f"expected header {TRACE_HEADER!r}")

    times: list[float] = []
    powers: list[float] = []
    for row, line in enumerate(lines[1:], start=1):
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
        if times and t <= times[-1]:
            raise NonMonotoneTime(row)
        times.append(t)
        powers.append(p)

    if len(times) < 2:
        raise TooFewSamples(f"trace has {len(times)} samples, need at least 2")
    return PowerTrace(unit_id="", wheel_id="", parts_ground=0, burn_rank=None,
                      times=np.array(times), powers=np.array(powers))


def parse_outcome(parse, text):
    """Bit patterns of the parsed arrays, or the error's class, row and message."""
    try:
        trace = parse(text)
    except GrindmonError as exc:
        return type(exc), getattr(exc, "row", None), str(exc)
    return trace.times.tobytes(), trace.powers.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
CORRUPTIONS = ("none", "non-numeric", "nan", "inf", "equal-time", "decreasing-time",
               "blank-line", "one-field", "three-fields")


@st.composite
def trace_texts(draw):
    """A trace CSV, valid or with one corrupted data row."""
    times = sorted(draw(st.lists(finite, min_size=2, max_size=30, unique=True)))
    powers = draw(st.lists(finite, min_size=len(times), max_size=len(times)))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    rows = [[f"{pad}{t!r}", f"{p!r}{pad}"] for t, p in zip(times, powers)]
    k = draw(st.integers(1, len(rows) - 1))
    corruption = draw(st.sampled_from(CORRUPTIONS))
    column = draw(st.integers(0, 1))
    if corruption == "non-numeric":
        rows[k][column] = draw(st.sampled_from(["abc", "1.2.3", "", "1x"]))
    elif corruption in ("nan", "inf"):
        rows[k][column] = draw(st.sampled_from([corruption, "-" + corruption]))
    elif corruption == "equal-time":
        rows[k][0] = rows[k - 1][0]
    elif corruption == "decreasing-time":
        rows[k - 1][0], rows[k][0] = rows[k][0], rows[k - 1][0]
    elif corruption == "one-field":
        rows[k] = rows[k][:1]
    elif corruption == "three-fields":
        rows[k] = rows[k] + ["0.0"]
    lines = [",".join(r) for r in rows]
    if corruption == "blank-line":
        lines.insert(k, draw(st.sampled_from(["", "  "])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from(["", eol, eol + eol, eol + " " + eol]))
    return eol.join([TRACE_HEADER] + lines) + tail


@settings(max_examples=400, deadline=None)
@given(text=trace_texts())
def test_parse_matches_row_loop(text):
    assert parse_outcome(parse_trace_csv, text) == parse_outcome(row_loop_parse, text)


@pytest.mark.parametrize("text", [
    "time_s,power_kw\r\n0.0,1.0\r\n0.05,2.0\r\n",
    "  time_s,power_kw \n 0.0 , 1.0 \n\t0.05,\t2.0\t\n",
    "time_s,power_kw\n0.0,1.0\n0.05,2.0\n\n \n\t\n",
    # 1 + 3 fields: 2n tokens in total that pair up into a valid trace
    "time_s,power_kw\n0,1\n2\n3,4,5\n6,7\n",
    "time_s,power_kw\n0,1\n2,3,4\n5\n6,7\n",
    "time_s,power_kw\n",
    "time_s,power_kw\n0.0,1.0\n",
])
def test_parse_matches_row_loop_on_fixed_cases(text):
    assert parse_outcome(parse_trace_csv, text) == parse_outcome(row_loop_parse, text)


@pytest.mark.parametrize("field", ["1_0", " 1.0 ", "+1", "1e5"])
def test_parse_accepts_python_float_fields(field):
    trace = parse_trace_csv(f"time_s,power_kw\n{field},{field}\n1e6,2")
    assert trace.times[0] == float(field) and trace.powers[0] == float(field)


@pytest.mark.parametrize("field", ["0x10", "1.0d0", ""])
@pytest.mark.parametrize("column", [0, 1])
def test_parse_rejects_fields_python_float_rejects(field, column):
    row = [field, "1"] if column == 0 else ["0", field]
    with pytest.raises(NonNumericField) as err:
        parse_trace_csv(f"time_s,power_kw\n{','.join(row)}\n1e6,2")
    assert err.value.row == 1


def test_parse_2048_row_file_spans_102_35_s():
    times = np.arange(2048) * 0.05
    text = serialize_trace_csv(make_trace(times, 0.5 + np.sin(times)))
    assert text.count("\n") == 2048 + 1  # header + rows, trailing newline
    parsed = parse_trace_csv(text)
    assert parsed.n_samples == 2048
    assert abs((parsed.times[-1] - parsed.times[0]) - (2048 - 1) * 0.05) < 1e-12


def test_serialize_parse_round_trip_preserves_values():
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.01, 0.1, size=40))
    powers = rng.normal(1.0, 0.3, size=40)
    trace = make_trace(times, powers)
    again = parse_trace_csv(serialize_trace_csv(trace))
    # repr round-trip is exact for binary doubles
    assert np.array_equal(again.times, trace.times)
    assert np.array_equal(again.powers, trace.powers)


def test_trace_validation():
    with pytest.raises(Exception):
        make_trace([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(Exception):
        make_trace([0.0, 0.05], [1.0, np.inf])
    with pytest.raises(Exception):
        make_trace([0.0, 0.05], [1.0, 2.0], burn_rank=4)


def test_label_from_rank():
    assert label_from_rank(1) == "NoBurn"
    assert label_from_rank(2) == "Burn"
    assert label_from_rank(3) == "Burn"
    assert label_from_rank(None) is None


# --- resampling ---

def test_resample_linear_example():
    trace = make_trace([0.0, 0.05, 0.10], [0.0, 1.0, 2.0])
    np.testing.assert_allclose(resample(trace, 5), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_resample_identity_on_uniform_grid():
    rng = np.random.default_rng(3)
    powers = rng.normal(size=64)
    trace = make_trace(np.arange(64) * 0.05, powers)
    np.testing.assert_allclose(resample(trace, 64), powers, atol=1e-12)


def test_resample_endpoints_exact():
    trace = make_trace([0.0, 0.031, 0.9], [3.0, -1.0, 7.0])
    out = resample(trace, 17)
    assert out[0] == 3.0 and out[-1] == 7.0


def test_resample_sine_round_trip():
    t = np.arange(100) * 0.05
    trace = make_trace(t, np.sin(2 * np.pi * t / 2.5))
    up = resample(trace, 1000)
    t_up = np.linspace(t[0], t[-1], 1000)
    back = resample(make_trace(t_up, up), 100)
    assert np.max(np.abs(back - trace.powers)) < 1e-3


def test_resample_rejects_short_lengths():
    trace = make_trace([0.0, 0.05], [1.0, 2.0])
    for bad in (1, 0, -3):
        with pytest.raises(BadResampleLength):
            resample(trace, bad)


@settings(max_examples=50, deadline=None)
@given(
    slope=st.floats(-5, 5, allow_nan=False),
    intercept=st.floats(-5, 5, allow_nan=False),
    n=st.integers(2, 30),
    length=st.integers(2, 80),
)
def test_resample_exact_on_affine_signals(slope, intercept, n, length):
    times = np.cumsum(np.full(n, 0.05)) - 0.05
    trace = make_trace(times, slope * times + intercept)
    out = resample(trace, length)
    grid = np.linspace(times[0], times[-1], length)
    np.testing.assert_allclose(out, slope * grid + intercept, atol=1e-12)


# --- manifests and matrix assembly ---

def write_campaign(tmp_path, specs):
    """specs: list of (unit, wheel, parts, rank, powers)."""
    entries = []
    for unit, wheel, parts, rank, powers in specs:
        trace = make_trace(np.arange(len(powers)) * 0.05, powers,
                           unit_id=unit, wheel_id=wheel, parts_ground=parts,
                           burn_rank=rank)
        (tmp_path / f"{unit}.csv").write_text(serialize_trace_csv(trace))
        entries.append(ManifestEntry(f"{unit}.csv", unit, wheel, parts, rank))
    return CampaignManifest(tuple(entries), base_dir=tmp_path)


def test_build_matrix_shape(tmp_path):
    manifest = write_campaign(tmp_path, [
        ("a", "w", 10, 1, [1.0, 2.0, 3.0]),
        ("b", "w", 20, 1, [2.0, 3.0, 4.0]),
        ("c", "w", 30, 2, [3.0, 4.0, 5.0]),
    ])
    matrix = build_matrix(manifest, 512)
    assert matrix.values.shape == (3, 512)
    assert [e.unit_id for e in matrix.meta] == ["a", "b", "c"]


def test_build_matrix_missing_file_names_path(tmp_path):
    manifest = CampaignManifest(
        (ManifestEntry("missing.csv", "a", "w", 0, 1),), base_dir=tmp_path
    )
    with pytest.raises(CampaignFileError) as err:
        build_matrix(manifest, 16)
    assert "missing.csv" in str(err.value)


def test_build_matrix_non_utf8_file_names_path(tmp_path):
    manifest = write_campaign(tmp_path, [("a", "w", 0, 1, [1.0, 2.0, 3.0])])
    (tmp_path / "a.csv").write_bytes(b"time_s,power_kw\n0.0,1.0\n0.05,\xff\n")
    with pytest.raises(CampaignFileError) as err:
        build_matrix(manifest, 16)
    assert "a.csv" in str(err.value)
    assert isinstance(err.value.cause, UnicodeDecodeError)


def test_build_matrix_empty_manifest(tmp_path):
    manifest = CampaignManifest((), base_dir=tmp_path)
    with pytest.raises(EmptyCampaign):
        build_matrix(manifest, 16)


def test_build_matrix_permutation_equivariant(tmp_path):
    # same wheel and checkpoint so every ordering is a valid manifest
    specs = [(f"u{i}", "w", 5, 1, list(np.linspace(i, i + 2, 7))) for i in range(4)]
    manifest = write_campaign(tmp_path, specs)
    matrix = build_matrix(manifest, 32)
    perm = [2, 0, 3, 1]
    shuffled = CampaignManifest(
        tuple(manifest.entries[i] for i in perm), base_dir=tmp_path
    )
    np.testing.assert_array_equal(build_matrix(shuffled, 32).values,
                                  matrix.values[perm])


def test_wheel1_campaign_is_100_rows(wheel1_manifest):
    matrix = build_matrix(wheel1_manifest, 128)
    assert matrix.values.shape == (100, 128)
    parts = sorted({e.parts_ground for e in wheel1_manifest.entries})
    assert parts == [160, 689, 753, 1147, 1367]


def test_manifest_rejects_duplicate_unit_per_wheel(tmp_path):
    entries = (
        ManifestEntry("a.csv", "u1", "w", 0, 1),
        ManifestEntry("b.csv", "u1", "w", 5, 1),
    )
    with pytest.raises(ManifestError):
        CampaignManifest(entries, base_dir=tmp_path)


def test_manifest_rejects_decreasing_parts_within_wheel(tmp_path):
    entries = (
        ManifestEntry("a.csv", "u1", "w", 10, 1),
        ManifestEntry("b.csv", "u2", "w", 5, 1),
    )
    with pytest.raises(ManifestError):
        CampaignManifest(entries, base_dir=tmp_path)


def test_manifest_csv_round_trip(tmp_path):
    manifest = write_campaign(tmp_path, [
        ("a", "w1", 10, 1, [1.0, 2.0]),
        ("b", "w1", 20, None, [2.0, 3.0]),
        ("c", "w2", 5, 2, [3.0, 4.0]),
    ])
    text = serialize_manifest_csv(manifest)
    assert text.splitlines()[0] == "trace_file,unit_id,wheel_id,parts_ground,burn_rank"
    again = parse_manifest_csv(text, base_dir=tmp_path)
    assert again.entries == manifest.entries
    assert again.labels() == ["NoBurn", None, "Burn"]

    save_manifest(manifest, tmp_path / "m.csv")
    assert load_manifest(tmp_path / "m.csv").entries == manifest.entries


def test_manifest_fingerprint_tracks_content(tmp_path):
    m1 = write_campaign(tmp_path, [("a", "w", 1, 1, [0.0, 1.0])])
    m2 = CampaignManifest(
        (ManifestEntry("a.csv", "a", "w", 2, 1),), base_dir=tmp_path
    )
    assert m1.fingerprint != m2.fingerprint
    assert m1.fingerprint == CampaignManifest(m1.entries, base_dir=tmp_path).fingerprint
