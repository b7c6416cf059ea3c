"""Traces that could not be scored to a finite LD1 are refused, naming the trace.

The strict parser used to accept each case below.  LD1 then came out NaN or
infinite, with a numpy RuntimeWarning that this suite's filterwarnings turns
into an error.  A PowerTrace now holds no power beyond POWER_LIMIT and no
infinite slope or time span, so a trace that exists scores to a finite LD1
against any bundle, at any resample length.
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grindmon import (
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    build_matrix,
    build_report,
    generate_trace,
    load_model,
    model_to_json,
    observe,
    parse_trace_csv,
    predict_campaign,
    resample,
    save_manifest,
    save_model,
    score_matrix,
    start_monitor,
    table2_preset,
)
from grindmon.cli import main
from grindmon.errors import CampaignFileError, CorruptModel, InvalidValue, UnscorableTrace
from grindmon.traces import POWER_LIMIT

from test_cli import make_runner
from test_monitor import _random_bundle

PAST_THE_LIMIT = float(np.nextafter(POWER_LIMIT, np.inf))

CASES = {  # name: (times, powers)
    "opposite-huge-powers": ([0.0, 1e-300], [-POWER_LIMIT, POWER_LIMIT]),  # the slope overflows
    "huge-smooth": ([0.0, 0.05, 0.1], [1e308, 1e308, 1e308]),  # beyond the power limit
    "opposite-powers-past-the-limit": ([0.0, 1.0], [-1e308, 1e308]),  # beyond the power limit
    "subnormal-time-step": ([0.0, 2.225073858507e-311], [1.0, 2.0]),  # the slope overflows
}
SLOPE_CASES = ["opposite-huge-powers", "subnormal-time-step"]


def csv_text(times, powers):
    return "time_s,power_kw\n" + "".join(f"{t!r},{p!r}\n" for t, p in zip(times, powers))


def make_trace(times, powers, unit_id="u"):
    return PowerTrace(unit_id=unit_id, wheel_id="w", parts_ground=0, burn_rank=None,
                      times=np.array(times, float), powers=np.array(powers, float))


@pytest.fixture()
def campaign(tmp_path, campaign_dir, wheel2_manifest):
    """Manifest of one wheel-2 trace then one unscorable trace, by case name."""
    good = wheel2_manifest.entries[0]

    def write(case):
        (tmp_path / "good.csv").write_bytes((campaign_dir / good.trace_file).read_bytes())
        (tmp_path / f"{case}.csv").write_text(csv_text(*CASES[case]), encoding="utf-8")
        entries = (ManifestEntry("good.csv", "good", "w", 0, 1),
                   ManifestEntry(f"{case}.csv", case, "w", 1, 1))
        return CampaignManifest(entries, base_dir=tmp_path)

    return write


def assert_names_the_file(err, manifest, case):
    assert err.value.path == str(manifest.base_dir / f"{case}.csv")
    cause = err.value.cause
    assert type(cause) is InvalidValue
    if case in SLOPE_CASES:
        assert cause.row == 2 and "power step over time step" in str(cause)
    else:
        assert cause.row == 1 and "|power| exceeds" in str(cause)


def test_the_power_limit_holds_for_every_array_length():
    """POWER_LIMIT * sqrt(L) < max / 4 for every L numpy can hold, since L < 2**60."""
    assert repr(POWER_LIMIT) == "4.1855804968213563e+298"
    assert POWER_LIMIT * 2.0**30 == sys.float_info.max / 4
    with pytest.raises(ValueError, match="array is too big"):
        np.empty(2**60)  # refused before any allocation


@pytest.mark.parametrize("case", SLOPE_CASES)
def test_an_infinite_slope_is_no_trace(case):
    with pytest.raises(ValueError, match="must be finite"):
        make_trace(*CASES[case])
    with pytest.raises(InvalidValue, match="power step over time step") as err:
        parse_trace_csv(csv_text(*CASES[case]))
    assert err.value.row == 2


def test_an_infinite_time_span_is_no_trace():
    times, powers = [-1e308, 0.0, 1e308], [1.0, 1.0, 1.0]  # each step is finite
    with pytest.raises(ValueError, match="must be finite"):
        make_trace(times, powers)
    with pytest.raises(InvalidValue, match="time span") as err:
        parse_trace_csv(csv_text(times, powers))
    assert err.value.row == 3


@pytest.mark.parametrize("powers, row", [
    ([1.0, -PAST_THE_LIMIT, 1.0], 2),
    ([PAST_THE_LIMIT, 1.0], 1),
    ([1.0, 2.0, 1e300], 3),
])
def test_a_power_beyond_the_limit_is_no_trace(powers, row):
    times = (np.arange(len(powers)) * 0.05).tolist()
    with pytest.raises(ValueError, match=r"exceeds 4\.1855804968213563e\+298 kW"):
        make_trace(times, powers)
    with pytest.raises(InvalidValue) as err:
        parse_trace_csv(csv_text(times, powers))
    assert err.value.row == row
    assert str(err.value) == f"data row {row}: |power| exceeds {POWER_LIMIT!r} kW"
    at_the_limit = np.clip(powers, -POWER_LIMIT, POWER_LIMIT).tolist()
    assert parse_trace_csv(csv_text(times, at_the_limit)).powers.tolist() == at_the_limit


def test_observe_rejects_a_trace_beyond_the_power_limit(wheel1_bundle):
    """Such a trace cannot be made, so it never reaches observe; one at the limit scores."""
    bundle = wheel1_bundle
    state = start_monitor(bundle)
    with pytest.raises(ValueError, match="exceeds"):
        make_trace(*CASES["huge-smooth"], unit_id="huge-smooth")
    times = np.arange(600) * 0.05
    with pytest.raises(ValueError, match="exceeds"):
        make_trace(times, np.full(600, PAST_THE_LIMIT))
    # at the limit, even with alternating signs, LD1 is finite and nothing warns
    for powers in (np.full(600, POWER_LIMIT), POWER_LIMIT * (-1.0) ** np.arange(600)):
        event, _ = observe(state, bundle, make_trace(times, powers))
        assert np.isfinite(event.ld1)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(2, 4096), k=st.integers(1, 4), n=st.integers(2, 600),
       seed=st.integers(0, 2**32 - 1))
def test_a_trace_at_the_power_limit_scores_finite_at_any_length(length, k, n, seed):
    """The POWER_LIMIT proof, checked through observe and through resample -> score_matrix.

    Against random orthonormal loadings and a mean whose every entry sits at
    the limit, a trace at +-POWER_LIMIT, constant or with alternating signs,
    scores to a finite LD1 with no numpy warning (an error in this suite).
    """
    rng = np.random.default_rng(seed)
    bundle = _random_bundle(rng, length, min(k, length), 1)
    mean = POWER_LIMIT * rng.choice([-1.0, 1.0], length)
    bundle = dataclasses.replace(bundle, pca=dataclasses.replace(bundle.pca, mean=mean))
    times = np.cumsum(rng.uniform(0.01, 1.0, n))
    state = start_monitor(bundle)
    for sign in (1.0, -1.0):
        for powers in (np.full(n, sign * POWER_LIMIT), sign * POWER_LIMIT * (-1.0) ** np.arange(n)):
            trace = make_trace(times, powers)
            event, _ = observe(state, bundle, trace)
            assert math.isfinite(event.ld1)
            scores, ld1, _ = score_matrix(bundle, resample(trace, length)[None])
            assert np.isfinite(scores).all() and np.isfinite(ld1).all()


def test_a_trace_edited_after_it_is_made_cannot_score_nan(wheel1_bundle):
    """An edit to a made trace is refused, so the checks made with it still hold.

    PowerTrace checks POWER_LIMIT and every slope once, when made.  Opposite
    huge powers written into its arrays afterwards would give an infinite
    slope; its arrays are read-only, so the edit itself raises.
    """
    trace = generate_trace(table2_preset(seed=42).wheel("wheel2"), 0, 0)
    with pytest.raises(ValueError, match="read-only"):
        trace.powers[100:110] = 1.7e308
    event, _ = observe(start_monitor(wheel1_bundle), wheel1_bundle, trace)
    assert np.isfinite(event.ld1), event


def test_score_matrix_refuses_a_matrix_beyond_the_power_limit(wheel1_bundle):
    """The in-memory route: rows of +-1e308 would score to LD1 inf and -inf."""
    bundle = wheel1_bundle
    L = bundle.resample_length
    X = np.full((3, L), 1.0)
    for bad in (1e308, -1e308, np.nan, PAST_THE_LIMIT):
        X[1] = bad
        with pytest.raises(UnscorableTrace, match="^matrix row 1: largest") as err:
            score_matrix(bundle, X)
        assert f"kW is not within {POWER_LIMIT!r} kW" in str(err.value)
    with pytest.raises(UnscorableTrace, match="^matrix row 0: "):
        score_matrix(bundle, X[1])  # one vector
    # exactly at the limit, even with alternating signs, every LD1 is finite
    X[1] = POWER_LIMIT
    X[2] = POWER_LIMIT * (-1.0) ** np.arange(L)
    scores, ld1, _ = score_matrix(bundle, X)
    assert np.isfinite(scores).all() and np.isfinite(ld1).all()


@pytest.mark.parametrize("case", CASES)
def test_build_matrix_names_the_file(campaign, case):
    manifest = campaign(case)
    with pytest.raises(CampaignFileError) as err:
        build_matrix(manifest)
    assert_names_the_file(err, manifest, case)


@pytest.mark.parametrize("case", CASES)
def test_predict_and_report_name_the_file(campaign, wheel1_bundle, case):
    manifest = campaign(case)
    for score in (predict_campaign, build_report):
        with pytest.raises(CampaignFileError) as err:
            score(wheel1_bundle, manifest)
        assert_names_the_file(err, manifest, case)


def test_a_model_mean_beyond_the_power_limit_is_corrupt(wheel1_bundle):
    doc = json.loads(model_to_json(wheel1_bundle))
    for bad in (1e307, 1e300, PAST_THE_LIMIT):
        doc["mean"][0] = bad
        with pytest.raises(CorruptModel, match="mean"):
            load_model(json.dumps(doc).encode())
    doc["mean"][0] = POWER_LIMIT
    assert load_model(json.dumps(doc).encode()).pca.mean[0] == POWER_LIMIT


@pytest.mark.parametrize("case", CASES)
def test_cli_rejects_the_trace_by_name(campaign, wheel1_bundle, tmp_path, case):
    manifest = campaign(case)
    model = tmp_path / "model.json"
    save_model(wheel1_bundle, model)
    runner = make_runner()
    paths = [str(tmp_path / "good.csv"), str(tmp_path / f"{case}.csv")]
    monitor = runner.invoke(main, ["monitor", "--model", str(model), *paths])
    assert monitor.exit_code == 2
    assert monitor.stderr.startswith(f"error: {paths[1]}: data row ")
    assert "RuntimeWarning" not in monitor.stderr
    assert len(monitor.stdout.splitlines()) == 1  # the good trace's event
    assert "NaN" not in monitor.stdout and "Infinity" not in monitor.stdout
    manifest_path = tmp_path / "manifest.csv"
    save_manifest(manifest, manifest_path)
    for command in ("predict", "report"):
        result = runner.invoke(main, [command, "--model", str(model),
                                      "--manifest", str(manifest_path)])
        assert result.exit_code == 2
        assert f"{case}.csv" in result.stderr
        assert "inf" not in result.stdout and "nan" not in result.stdout


def test_cli_names_the_row_past_the_limit(wheel1_bundle, tmp_path):
    """One 1e300 sample: scored once to an LD1 of about 8e300, now refused with its row."""
    model = tmp_path / "model.json"
    save_model(wheel1_bundle, model)
    huge = tmp_path / "huge.csv"
    huge.write_text("time_s,power_kw\n0.0,1.0\n0.05,1e300\n0.1,1.0\n", encoding="utf-8")
    result = make_runner().invoke(main, ["monitor", "--model", str(model), str(huge)])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (
        f"error: {huge}: data row 2: |power| exceeds 4.1855804968213563e+298 kW\n")
