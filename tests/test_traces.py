import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grindmon import (
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    build_matrix,
    default_preset,
    generate_trace,
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
from grindmon import traces
from grindmon.traces import MANIFEST_HEADER, TRACE_HEADER, _grid


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
    """The row-by-row parser as it stood before the vectorized fast path.

    It has since gained the rejection of an infinite slope or time span.
    """
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
        if times and not math.isfinite((p - powers[-1]) / (t - times[-1])):
            raise InvalidValue(row, f"data row {row}: power step over time step is not finite")
        if times and not math.isfinite(t - times[0]):
            raise InvalidValue(row, f"data row {row}: time span from the first row is not finite")
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
CORRUPTIONS = ("none", "non-numeric", "non-ascii", "nan", "inf", "adjacent-inf",
               "equal-time", "decreasing-time", "blank-line", "one-field", "three-fields")
# str.splitlines ends a line at each of these as well as at CR and LF
OTHER_LINE_BOUNDARIES = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# float() takes Unicode digits and whitespace, so some of these parse
NON_ASCII_FIELDS = ("é", "١٢", "\u00a03.5", "2.5\u2003", "½", "1.5€")


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
    elif corruption == "non-ascii":
        rows[k][column] = draw(st.sampled_from(NON_ASCII_FIELDS))
    elif corruption in ("nan", "inf"):
        rows[k][column] = draw(st.sampled_from([corruption, "-" + corruption]))
    elif corruption == "adjacent-inf":
        rows[k - 1][column] = rows[k][column] = draw(st.sampled_from(["inf", "-inf"]))
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
        lines.insert(k, draw(st.sampled_from(["", "  ", *OTHER_LINE_BOUNDARIES])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from(["", eol, eol + eol, eol + " " + eol,
                                 *(eol + b for b in OTHER_LINE_BOUNDARIES)]))
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
    # other line boundaries split rows, or make blank ones, as they do for the row loop
    "time_s,power_kw\n0,1\x0b2,3\u20284,5\n",
    "time_s,power_kw\n0,1\n\x85\n2,3\n",
    "time_s,power_kw\n0,1\n2,3\n\x0c\x1c\u2028",
    # non-ASCII fields: Unicode digits and spaces parse, other symbols do not
    "time_s,power_kw\n\u00a00,١\n١٢,2\u2003\n",
    "time_s,power_kw\n0,1\n1,½\n",
    # adjacent infinite times: rejected by the row loop's finiteness check, no warning
    "time_s,power_kw\n0,1\ninf,2\ninf,3\n",
    "time_s,power_kw\n-inf,1\n-inf,2\n0,3\n",
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


@pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None],
                         ids=["2.5", "float-3", "float64-3", "True", "bool_-True", "str-3", "None"])
def test_resample_rejects_non_integer_lengths(bad, tmp_path):
    trace = make_trace([0.0, 0.05], [1.0, 2.0])
    with pytest.raises(BadResampleLength, match="must be an integer"):
        resample(trace, bad)
    with pytest.raises(BadResampleLength, match="must be an integer"):
        build_matrix(CampaignManifest(entries=(), base_dir=tmp_path), bad)


def test_resample_accepts_numpy_integer_lengths():
    trace = make_trace([0.0, 1.0], [1.0, 2.0])
    np.testing.assert_array_equal(resample(trace, np.int64(3)), [1.0, 1.5, 2.0])


def linspace_resample(trace, length):
    """resample as first written: np.interp on np.linspace, endpoints pinned."""
    values = np.interp(np.linspace(trace.times[0], trace.times[-1], length),
                       trace.times, trace.powers)
    values[0], values[-1] = trace.powers[0], trace.powers[-1]
    return values


# a time scale down to the smallest subnormal, where the grid step underflows
# to 0; times are whole multiples of it, so they stay strictly increasing
scales = st.one_of(st.integers(1, 1000).map(lambda k: k * 5e-324), st.floats(1e-9, 1e3))
offsets = st.integers(-10**6, 10**6)


@settings(max_examples=400, deadline=None)
@given(scale=scales, offset=offsets, span=st.integers(1, 10**4), length=st.integers(2, 3000))
@example(scale=5e-324, offset=0, span=1, length=3)
def test_resample_grid_is_bit_equal_to_linspace(scale, offset, span, length):
    t0, t1 = np.float64(scale * offset), np.float64(scale * (offset + span))
    assume(t1 > t0)
    assert _grid(t0, t1, length).tobytes() == np.linspace(t0, t1, length).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    scale=scales,
    offset=offsets,
    gaps=st.lists(st.integers(1, 1000), min_size=1, max_size=40),
    powers=st.lists(st.floats(-1e6, 1e6), min_size=41, max_size=41),
    length=st.integers(2, 600),
)
def test_resample_output_is_bit_equal_to_the_linspace_formula(scale, offset, gaps, powers, length):
    times = scale * (offset + np.cumsum([0, *gaps]))
    assume(np.all(np.diff(times) > 0))
    # powers scaled with the times keep every slope finite, as a trace requires
    trace = make_trace(times, scale * np.array(powers[: times.size]))
    assert resample(trace, length).tobytes() == linspace_resample(trace, length).tobytes()


def test_grid_is_one_array_for_a_repeated_span_and_resample_leaves_it_intact():
    trace = make_trace(np.arange(513) * 0.05, np.linspace(1.0, 3.0, 513))
    t0, t1 = trace.times[0], trace.times[-1]
    grid = _grid(t0, t1, 512)
    resample(trace, 512)
    resample(trace, 512)
    assert _grid(t0, t1, 512) is grid
    assert grid.tobytes() == np.linspace(t0, t1, 512).tobytes()
    assert _grid(t0, t1, 513) is not grid


def test_resample_of_interleaved_spans_is_bit_equal_to_linspace():
    rng = np.random.default_rng(5)
    a = make_trace(np.arange(40) * 0.05, rng.normal(size=40))
    b = make_trace(0.3 + np.arange(25) * 0.031, rng.normal(size=25))
    # a's span with other inner times: the grid depends on the span alone
    a_inner = make_trace(np.r_[0.0, np.sort(rng.uniform(0.01, 1.94, 30)), a.times[-1]],
                         rng.normal(size=32))
    # a zero end of either sign shares one cache entry
    pos_zero = make_trace([-1.0, -0.5, 0.0], [1.0, 2.0, 3.0])
    neg_zero = make_trace([-1.0, -0.5, -0.0], [4.0, 5.0, 6.0])
    for length in (17, 512):
        for trace in (a, a, b, a, a_inner, b, pos_zero, neg_zero, pos_zero):
            assert (resample(trace, length).tobytes()
                    == linspace_resample(trace, length).tobytes())


@pytest.mark.parametrize("length", [17, 512, 1024])
@pytest.mark.parametrize("grid", ["cached", "fresh", "underflow"])
def test_resample_keeps_the_exact_bits_of_both_end_powers(grid, length):
    """The ends of a resample are powers[0] and powers[-1] bit for bit, -0.0 included.

    resample writes nothing after np.interp: `_grid` gives the first and
    last times exactly, and np.interp returns fp[j] itself where x == xp[j],
    with fewer grid points than samples and with more.  "underflow" is
    `_grid`'s branch for a span whose step underflows: equal powers, so the
    slopes stay finite, over a subnormal span.
    """
    if grid == "underflow":
        times, powers = np.array([-0.0, 5e-324, 1e-323]), np.array([-0.0, -0.0, -0.0])
        assert times[-1] / (length - 1) == 0
    else:
        times = np.r_[-0.0, np.arange(1, 513) * 0.05]
        powers = np.r_[-0.0, np.linspace(1.0, 3.0, 511), -0.0]
    trace = make_trace(times, powers)
    _grid.cache_clear()
    if grid == "cached":
        resample(make_trace(times, np.ones(times.size)), length)
    out = resample(trace, length)
    if grid == "cached":
        assert _grid.cache_info().hits >= 1
    assert out[0].tobytes() == powers[0].tobytes() and np.signbit(out[0])
    assert out[-1].tobytes() == powers[-1].tobytes() and np.signbit(out[-1])
    assert out.tobytes() == linspace_resample(trace, length).tobytes()


def test_writing_into_a_resample_result_leaves_the_next_unchanged():
    trace = make_trace(np.arange(20) * 0.05, np.linspace(1.0, 3.0, 20))
    first = resample(trace, 64)
    assert first.flags.writeable
    first[:] = 99.0
    second = resample(trace, 64)
    assert second is not first and second.flags.writeable
    assert second.tobytes() == linspace_resample(trace, 64).tobytes()


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


def simulated_trace(seed, parts):
    return generate_trace(default_preset(seed=seed).wheels[seed % 3], parts, 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(0, 2500),
       k=st.integers(-900, 900), length=st.sampled_from([2, 64, 512, 513, 2048]))
def test_scaling_times_by_a_power_of_two_gives_a_bit_equal_resample(seed, parts, k, length):
    """Times times 2**k, all staying normal floats, resample to the same bits.

    Scaling by 2**k changes only exponents, and rounding commutes with it.
    Every step of the grid and of np.interp on the times is a difference,
    a quotient by a count, a product with a count, a sum or a comparison,
    so each computed time scales by exactly 2**k and each slope by 2**-k.
    A slope times an offset into its step, plus a power, is then the same
    float as before.
    """
    trace = simulated_trace(seed, parts)
    scaled = dataclasses.replace(trace, times=np.ldexp(trace.times, k))
    assert resample(scaled, length).tobytes() == resample(trace, length).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(0, 2500),
       shift=st.floats(0.0, 2e9), length=st.sampled_from([2, 64, 512, 513, 2048]))
@example(seed=42, parts=1300, shift=100.0, length=512)
@example(seed=42, parts=1300, shift=1e6, length=512)
@example(seed=42, parts=1300, shift=1.7e9, length=512)
def test_shifting_times_moves_a_resample_by_at_most_its_rounding(seed, parts, shift, length):
    """Times plus c move each resampled power by no more than rounding allows.

    Let S be the largest |power step / time step| and f the exact linear
    interpolant, so f is S-Lipschitz.  With u the ulp of the largest
    shifted time, u0 that of the largest original time, P the largest
    |power| and eps = 2**-53 (so eps * x < ulp(x)):
    - each shifted time is rounded by at most u/2, which moves the
      interpolant by at most S u/2;
    - each computed grid time is off the exact one by at most 4.5 u: u/2
      from the rounded first time, 1.5 u from the rounded span, 2 u from
      the step's two roundings and u/2 from the final sum (and at most
      4.5 u0 for the original times, whose ends are exact);
    - np.interp's five roundings in a slope times an offset, a product of
      at most 2 P, add under 10 ulp(P), and its final sum ulp(P)/2.
    Both resamples are compared with f, so the bound is the sum of both.
    """
    trace = simulated_trace(seed, parts)
    times, powers = trace.times, trace.powers
    shifted = dataclasses.replace(trace, times=times + shift)
    moved = np.abs(resample(shifted, length) - resample(trace, length)).max()
    S = np.abs(np.diff(powers) / np.diff(times)).max()
    u, u0 = np.spacing(shifted.times[-1]), np.spacing(times[-1])
    bound = S * (5 * u + 4.5 * u0) + 21 * np.spacing(np.abs(powers).max())
    assert moved <= bound


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


# --- one shared time column ---

TIME_COLUMN_MODES = ("same", "respelled", "moved", "prefix", "other")
times_lists = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20, unique=True)


@st.composite
def time_columns(draw, base):
    """Time fields sharing all, all but one, a prefix, or none of `base`."""
    mode = draw(st.sampled_from(TIME_COLUMN_MODES))
    fields = list(base)
    if mode == "respelled":  # one field spelled differently, same value
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(st.sampled_from([" {}", "{} ", "{}\t"])).format(fields[j])
    elif mode == "moved":  # one value different
        fields[-1] = repr(float(np.nextafter(float(fields[-1]), np.inf)))
    elif mode == "prefix":
        fields = fields[: draw(st.integers(2, len(fields)))]
    elif mode == "other":
        fields = [repr(t) for t in sorted(draw(times_lists))]
    return fields


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=times_lists, length=st.integers(2, 64))
def test_build_matrix_is_bit_equal_to_row_loop_parse_and_resample(data, base, length):
    base = [repr(t) for t in sorted(base)]
    columns = data.draw(st.lists(time_columns(base), min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        entries, expected, failure = [], [], None
        for i, fields in enumerate(columns):
            powers = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(fields),
                                        max_size=len(fields)))
            rows = [f"{t},{p!r}" for t, p in zip(fields, powers)]
            text = "\n".join([TRACE_HEADER, *rows]) + "\n"
            path = Path(tmp) / f"u{i}.csv"
            path.write_text(text, encoding="utf-8")
            entries.append(ManifestEntry(f"u{i}.csv", f"u{i}", "w", i, 1))
            try:
                expected.append(resample(row_loop_parse(text), length))
            except InvalidValue as exc:  # a subnormal time step: an infinite slope
                failure = failure or (str(path), exc.row, str(exc))
        manifest = CampaignManifest(tuple(entries), base_dir=tmp)
        if failure is None:
            matrix = build_matrix(manifest, length)
            assert matrix.values.tobytes() == np.array(expected).tobytes()
        else:  # build_matrix stops at the first trace the row loop rejects, naming it
            with pytest.raises(CampaignFileError) as err:
                build_matrix(manifest, length)
            cause = err.value.cause
            assert type(cause) is InvalidValue
            assert (err.value.path, cause.row, str(cause)) == failure


def test_build_matrix_shares_a_read_only_time_array(tmp_path, monkeypatch):
    manifest = write_campaign(tmp_path, [
        ("a", "w", 0, 1, [1.0, 2.0, 3.0]),
        ("b", "w", 1, 1, [2.0, 3.0, 4.0]),
        ("c", "w", 2, 1, [5.0, 6.0, 7.0, 8.0]),
        ("d", "w", 3, 1, [5.0, 6.0, 7.0]),
    ])
    seen = []

    def recording_resample(trace, length, resample=traces.resample):
        seen.append(trace)
        return resample(trace, length)

    monkeypatch.setattr(traces, "resample", recording_resample)
    build_matrix(manifest, 8)
    a, b, c, d = seen
    # only the previous trace's column is reused
    assert b.times is a.times and c.times is not b.times and d.times is not c.times
    assert np.array_equal(d.times, a.times) and d.times is not a.times
    for trace in seen:
        assert not trace.times.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        b.times[0] = 1.0
    build_matrix(manifest, 8)  # the last column is kept from one call to the next
    assert seen[4].times is d.times and not seen[4].times.flags.writeable
    other = parse_trace_csv("time_s,power_kw\n0,1\n1,2\n").times  # a different column
    assert not other.flags.writeable
    build_matrix(manifest, 8)  # ... replaced the kept one
    assert seen[8].times is not d.times and np.array_equal(seen[8].times, d.times)
    assert not seen[8].times.flags.writeable


# --- metadata that a manifest can carry back ---

@pytest.mark.parametrize("parts_ground, burn_rank", [
    (2.5, 1), (3.0, 1), (np.float64(3.0), 1), (True, 1), ("3", 1), (None, 1), (-1, 1),
    (0, True), (0, np.bool_(True)), (0, 2.0), (0, "2"), (0, 0), (0, 4),
], ids=lambda v: repr(v))
def test_metadata_rejects_non_integer_counts_and_ranks(parts_ground, burn_rank):
    with pytest.raises(ValueError):
        make_trace([0.0, 1.0], [1.0, 2.0], parts_ground=parts_ground, burn_rank=burn_rank)
    with pytest.raises(ValueError):
        ManifestEntry("a.csv", "u", "w", parts_ground, burn_rank)


def test_metadata_accepts_numpy_integers():
    trace = make_trace([0.0, 1.0], [1.0, 2.0], parts_ground=np.int64(5), burn_rank=np.int32(2))
    assert trace.label == "Burn"
    entry = ManifestEntry("a.csv", "u", "w", np.uint16(5), np.int8(1))
    assert entry.label == "NoBurn"


@pytest.mark.parametrize("bad", [" u", "u ", "\tu", "u\u00a0", "a\rb", "a\nb", "u\r\n", 5, None],
                         ids=repr)
@pytest.mark.parametrize("field", ["trace_file", "unit_id", "wheel_id"])
def test_metadata_rejects_ids_the_manifest_reader_would_change(field, bad):
    ids = {"trace_file": "a.csv", "unit_id": "u", "wheel_id": "w", field: bad}
    with pytest.raises(ValueError, match=field):
        ManifestEntry(ids["trace_file"], ids["unit_id"], ids["wheel_id"], 0, 1)
    if field != "trace_file":
        with pytest.raises(ValueError, match=field):
            make_trace([0.0, 1.0], [1.0, 2.0], unit_id=ids["unit_id"], wheel_id=ids["wheel_id"])


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.text(max_size=8), min_size=3, max_size=3),
       parts_ground=st.integers(0, 10**20), burn_rank=st.sampled_from([None, 1, 2, 3]))
def test_every_accepted_manifest_entry_reads_back_equal(tmp_path_factory, ids, parts_ground,
                                                         burn_rank):
    try:
        entry = ManifestEntry(*ids, parts_ground, burn_rank)
    except ValueError:
        assume(False)
    tmp = tmp_path_factory.getbasetemp()
    manifest = CampaignManifest((entry,), base_dir=tmp)
    assert parse_manifest_csv(serialize_manifest_csv(manifest), tmp).entries == (entry,)
    save_manifest(manifest, tmp / "round-trip-manifest.csv")
    assert load_manifest(tmp / "round-trip-manifest.csv").entries == (entry,)


@pytest.mark.parametrize("row, message", [
    ('a.csv,"u\nv",w,0,1\n', "row 1: unit_id"),
    ("a.csv,u,w,-1,1\n", "row 1: parts_ground"),
    ("a.csv,u,w,0,4\n", "row 1: burn_rank"),
    ("a.csv,u" + "x" * 131_072 + ",w,0,1\n", "line 2: field larger than field limit"),
    ("a.csv,u\rv,w,0,1\n", "line 2: new-line character seen in unquoted field"),
], ids=["quoted-newline-id", "negative-parts", "rank-4", "oversized-field", "bare-cr"])
def test_manifest_reader_raises_only_manifest_errors(row, message):
    with pytest.raises(ManifestError, match=message):
        parse_manifest_csv(MANIFEST_HEADER + "\n" + row)


def test_load_manifest_wraps_csv_errors_with_the_path(tmp_path):
    path = tmp_path / "huge-manifest.csv"
    path.write_text(MANIFEST_HEADER + "\na.csv,u" + "x" * 131_072 + ",w,0,1\n")
    with pytest.raises(CampaignFileError) as err:
        load_manifest(path)
    assert str(path) in str(err.value) and isinstance(err.value.cause, ManifestError)
