"""Traces that cannot be scored to a finite LD1 are rejected, naming the trace.

The strict parser used to accept each case below.  LD1 then came out NaN or
infinite, with a numpy RuntimeWarning that this suite's filterwarnings turns
into an error.
"""

import json

import numpy as np
import pytest

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
from grindmon.traces import power_limit

from test_cli import make_runner

CASES = {  # name: (times, powers)
    "opposite-huge-powers": ([0.0, 1.0], [-1e308, 1e308]),  # the slope overflows
    "huge-smooth": ([0.0, 0.05, 0.1], [1e308, 1e308, 1e308]),  # the projection overflows
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
    if case in SLOPE_CASES:
        assert type(cause) is InvalidValue and cause.row == 2
    else:
        assert type(cause) is UnscorableTrace and repr(case) in str(cause)


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


def test_observe_rejects_a_trace_beyond_the_power_limit(wheel1_bundle):
    bundle = wheel1_bundle
    state = start_monitor(bundle)
    with pytest.raises(UnscorableTrace, match="'huge-smooth'"):
        observe(state, bundle, make_trace(*CASES["huge-smooth"], unit_id="huge-smooth"))
    limit = power_limit(bundle.resample_length)
    times = np.arange(600) * 0.05
    with pytest.raises(UnscorableTrace):
        observe(state, bundle, make_trace(times, np.full(600, np.nextafter(limit, np.inf))))
    # at the limit, even with alternating signs, LD1 is finite and nothing warns
    for powers in (np.full(600, limit), limit * (-1.0) ** np.arange(600)):
        event, _ = observe(state, bundle, make_trace(times, powers))
        assert np.isfinite(event.ld1)


def test_a_trace_edited_after_it_is_made_cannot_score_nan(wheel1_bundle):
    """An edit to a made trace is refused, or the trace is refused, or LD1 stays finite.

    PowerTrace checks max_abs_power and every slope once, when made.  Opposite
    huge powers written into its arrays afterwards would give an infinite
    slope; its arrays are read-only, so the edit itself raises.
    """
    trace = generate_trace(table2_preset(seed=42).wheel("wheel2"), 0, 0)
    try:
        trace.powers[100:110] = 1.7e308
        trace.powers[101] = -1.7e308
    except ValueError:  # read-only arrays: the edit itself is refused
        return
    with np.errstate(all="ignore"):
        try:
            event, _ = observe(start_monitor(wheel1_bundle), wheel1_bundle, trace)
        except UnscorableTrace:
            return
    assert np.isfinite(event.ld1), event


@pytest.mark.parametrize("length", [2, 512, 4096])
def test_resample_is_the_gate_for_a_trace(length):
    limit = power_limit(length)
    times = np.arange(3) * 1e9  # long steps keep each slope finite
    past = make_trace(times, [0.0, -np.nextafter(limit, np.inf), 0.0], unit_id="past")
    with pytest.raises(UnscorableTrace) as err:
        resample(past, length)
    assert str(err.value) == (
        f"trace 'past': largest |power| {past.max_abs_power!r} kW exceeds {limit!r} kW,"
        " the most it can hold to be scored without overflow")
    assert np.abs(resample(make_trace(times, [limit, -limit, limit]), length)).max() == limit


def test_score_matrix_refuses_a_matrix_beyond_the_power_limit(wheel1_bundle):
    """The in-memory route: rows of +-1e308 would score to LD1 inf and -inf."""
    bundle = wheel1_bundle
    L = bundle.resample_length
    limit = power_limit(L)
    X = np.full((3, L), 1.0)
    for bad in (1e308, -1e308, np.nan):
        X[1] = bad
        with pytest.raises(UnscorableTrace, match="^matrix row 1: largest") as err:
            score_matrix(bundle, X)
        assert "kW is not within" in str(err.value)
    with pytest.raises(UnscorableTrace, match="^matrix row 0: "):
        score_matrix(bundle, X[1])  # one vector
    # exactly at the limit, even with alternating signs, every LD1 is finite
    X[1] = limit
    X[2] = limit * (-1.0) ** np.arange(L)
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
    doc["mean"][0] = 1e307
    with pytest.raises(CorruptModel, match="mean"):
        load_model(json.dumps(doc).encode())


@pytest.mark.parametrize("case", CASES)
def test_cli_rejects_the_trace_by_name(campaign, wheel1_bundle, tmp_path, case):
    manifest = campaign(case)
    model = tmp_path / "model.json"
    save_model(wheel1_bundle, model)
    runner = make_runner()
    paths = [str(tmp_path / "good.csv"), str(tmp_path / f"{case}.csv")]
    monitor = runner.invoke(main, ["monitor", "--model", str(model), *paths])
    assert monitor.exit_code == 2
    assert case in monitor.stderr and "RuntimeWarning" not in monitor.stderr
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
