import copy
import dataclasses
import io
import itertools
import json
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grindmon import (
    BURN,
    HEALTHY,
    WARNING,
    DEFAULT_RESAMPLE_LENGTH,
    LdaModel,
    ModelBundle,
    MonitorConfig,
    MonitorEvent,
    PcaModel,
    PowerTrace,
    ScenarioPreset,
    WheelScenario,
    classify,
    default_preset,
    fit_bundle,
    fit_matrix,
    format_event,
    generate_campaign,
    generate_trace,
    generate_wheel_traces,
    load_model,
    load_trace,
    model_to_json,
    observe,
    predict_campaign,
    project,
    resample,
    save_model,
    start_monitor,
    table2_preset,
)
from grindmon import monitor, traces
from grindmon.errors import BadResampleLength, CorruptModel, SchemaError, VersionMismatch
from grindmon.monitor import MODEL_FIELDS, STATE_ORDER, MonitorState, _step, _view
from grindmon.simulate import KNEE

from test_traces import linspace_resample


def identity_bundle(mu_noburn=-4.0, mu_burn=2.0, threshold=1.0,
                    warning_fraction=0.8, hold_count=1, direction=(1.0,)):
    """Bundle whose LD1 equals the (constant) power level of a 2-sample trace."""
    pca = PcaModel(mean=np.zeros(2), loadings=np.array([[1.0], [0.0]]),
                   singular_values=np.array([1.0]), n_train=None,
                   explained_variance_ratio=None)
    lda = LdaModel(direction=np.array(direction), class_means_ld=(mu_noburn, mu_burn),
                   threshold=threshold, priors=(0.5, 0.5), ridge=0.0)
    return ModelBundle(resample_length=2, pca=pca, lda=lda,
                       monitor_config=MonitorConfig(warning_fraction, hold_count),
                       training_fingerprint="0" * 64)


def trace_of(value, unit_id="u"):
    return PowerTrace(unit_id=unit_id, wheel_id="w", parts_ground=0, burn_rank=None,
                      times=np.array([0.0, 0.05]), powers=np.array([value, value], float))


def run(bundle, values):
    state = start_monitor(bundle)
    events = []
    for i, v in enumerate(values):
        event, state = observe(state, bundle, trace_of(v, f"u{i}"))
        events.append(event)
    return events, state


# the identity bundle has warning_limit = -4 + 0.8 * (1 - (-4)) = 0

def test_warning_limit_placement():
    bundle = identity_bundle()
    assert bundle.warning_limit() == pytest.approx(0.0)
    assert bundle.lda.mu_noburn < bundle.warning_limit() < bundle.lda.threshold


def test_quiet_sequence_stays_healthy():
    events, state = run(identity_bundle(), [-2.0, -1.9])
    assert [e.state for e in events] == [HEALTHY, HEALTHY]
    assert not any(e.alert for e in events)
    assert state.state == HEALTHY


def test_two_stage_escalation_with_alerts():
    events, state = run(identity_bundle(), [-1.0, 0.5, 2.0])
    assert [(e.prev_state, e.state) for e in events] == [
        (HEALTHY, HEALTHY), (HEALTHY, WARNING), (WARNING, BURN)]
    assert [e.alert for e in events] == [False, True, True]
    assert state.state == BURN


def test_no_state_skipping_on_extreme_scores():
    events, _ = run(identity_bundle(), [50.0, 50.0])
    assert [e.state for e in events] == [WARNING, BURN]


def test_burn_is_absorbing_and_flags_post_failure():
    events, state = run(identity_bundle(), [2.0, 2.0, -10.0])
    assert [e.state for e in events] == [WARNING, BURN, BURN]
    assert events[2].post_failure and not events[1].post_failure
    assert not events[2].alert
    assert state.state == BURN


def test_hold_count_debounces_single_spikes():
    bundle = identity_bundle(hold_count=2)
    events, _ = run(bundle, [0.5, -1.0, 0.5, 0.5])
    assert [e.state for e in events] == [HEALTHY, HEALTHY, HEALTHY, WARNING]


def test_hold_counter_resets_after_each_transition():
    bundle = identity_bundle(hold_count=2)
    events, _ = run(bundle, [0.5, 0.5, 2.0, 2.0])
    assert [e.state for e in events] == [HEALTHY, WARNING, WARNING, BURN]


def test_history_is_append_only():
    bundle = identity_bundle()
    state = start_monitor(bundle)
    assert state.history == ()
    _, s1 = observe(state, bundle, trace_of(-1.0, "a"))
    _, s2 = observe(s1, bundle, trace_of(0.5, "b"))
    assert len(s2.history) == 2
    assert s2.history[0][0] == "a" and s2.history[1][3] == WARNING
    assert s1.history == s2.history[:1]


def assert_reads_like(history, ref):
    """history answers every tuple operation exactly as the tuple ref does."""
    n = len(ref)
    assert len(history) == n
    assert history == ref and ref == history and not history != ref
    longer = ref + (("x", 0.0, "x", "x"),)
    assert history != longer and longer != history and history != list(ref)
    assert tuple(history) == ref and list(reversed(history)) == list(reversed(ref))
    for i in range(-n, n):
        assert history[i] == ref[i]
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            history[i]
    bounds = (None, 0, 1, -1, n // 2, -n - 2, n + 2)
    for start, stop in itertools.product(bounds, repeat=2):
        for step in (None, 2, -1, -3):
            assert history[start:stop:step] == ref[start:stop:step]
    assert hash(history) == hash(ref)
    assert repr(history) == repr(ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_history_view_reads_like_a_tuple_across_branches(data):
    bundle = identity_bundle()
    values = st.floats(-3, 3, allow_nan=False)
    states, refs = [start_monitor(bundle)], [()]

    def extend(state, ref, name, scores):
        for j, value in enumerate(scores):
            event, state = observe(state, bundle, trace_of(value, f"{name}{j}"))
            ref = ref + ((event.unit_id, event.ld1, event.label, event.state),)
            assert state.history == ref
            states.append(state)
            refs.append(ref)

    extend(states[0], refs[0], "c", data.draw(st.lists(values, max_size=12)))
    for b in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(states) - 1))
        extend(states[at], refs[at], f"b{b}.", data.draw(st.lists(values, min_size=1, max_size=6)))

    # every snapshot still reads as it did when it was made
    for state, ref in zip(states, refs):
        assert_reads_like(state.history, ref)
        plain = MonitorState(state.state, state.warning_limit, state.consecutive_above, ref)
        assert plain == state and hash(plain) == hash(state) and repr(plain) == repr(state)
    assert pickle.loads(pickle.dumps(states[-1])) == states[-1]


def test_history_append_loses_no_race_for_the_tip():
    # another thread appends between the tip check and this append
    class RacedList(list):
        def append(self, record):
            super().append(("other", 1.0, "Burn", BURN))
            super().append(record)

    tip = _view(RacedList([("root", 0.0, "NoBurn", HEALTHY)]), 1)
    record = ("mine", 2.0, "Burn", WARNING)
    assert tip.appended(record) == (("root", 0.0, "NoBurn", HEALTHY), record)
    assert tip == (("root", 0.0, "NoBurn", HEALTHY),)


def test_hundred_thousand_observation_lifetime():
    # LD1 rises from -3 to 3 in 1,000 levels held for 100 observations each
    bundle = identity_bundle()
    pool = [trace_of(v, f"u{i}") for i, v in enumerate(np.linspace(-3.0, 3.0, 1000))]
    state = start_monitor(bundle)
    order = [STATE_ORDER[state.state]]
    alerts = []
    for i in range(100_000):
        event, state = observe(state, bundle, pool[i // 100])
        order.append(STATE_ORDER[event.state])
        if event.alert:
            alerts.append(event.state)
    assert len(state.history) == 100_000
    assert all(a <= b for a, b in zip(order, order[1:]))
    assert alerts == [WARNING, BURN]
    assert state.history[-1] == ("u999", 3.0, "Burn", BURN)
    assert [STATE_ORDER[r[3]] for r in state.history] == order[1:]


def test_monitor_state_rejects_a_warning_limit_that_is_not_a_number():
    for bad in ("x", None, True, [0.0], 10**400):
        with pytest.raises(ValueError, match="warning_limit"):
            MonitorState(HEALTHY, bad, 0)
    assert type(MonitorState(HEALTHY, np.float64(0.5)).warning_limit) is float


def test_observe_gives_the_events_of_the_scoring_formula_on_2000_wheel2_traces(wheel1_bundle):
    """Each event, and the state after it, as the formula and the public constructors give them.

    LD1 lies within 1e-12 (1 + |LD1|) of float(((x - mean) @ loadings) @
    direction), with x resampled as first written (np.linspace grid, ends
    pinned): observe scores the powers through the pulled-back model, which
    rounds differently.  Everything else is exact against the event's own
    LD1.  observe builds its events and states without their constructors;
    they must equal what the constructors make.  A hold count of 3 makes the
    counter move.
    """
    hold = 3
    bundle = dataclasses.replace(wheel1_bundle, monitor_config=MonitorConfig(hold_count=hold))
    pca, lda = bundle.pca, bundle.lda
    wheel2 = table2_preset(seed=42).wheel("wheel2")
    state = ref = start_monitor(bundle)
    records = []
    for parts in range(2000):
        trace = generate_trace(wheel2, parts, 0)
        event, state = observe(state, bundle, trace)
        x = linspace_resample(trace, bundle.resample_length)
        formula = float(((x - pca.mean) @ pca.loadings) @ lda.direction)
        ld1 = event.ld1
        assert type(event) is MonitorEvent and abs(ld1 - formula) <= 1e-12 * (1 + abs(formula))
        label = "Burn" if ld1 >= lda.threshold else "NoBurn"
        name, counter = _step(ref, ld1, lda.threshold, hold)
        assert event == MonitorEvent(trace.unit_id, ld1, label, ref.state, name,
                                     name != ref.state, ref.state == BURN)
        records.append((trace.unit_id, ld1, label, name))
        ref = MonitorState(name, ref.warning_limit, counter)
        assert (state.state, state.warning_limit, state.consecutive_above) == (
            ref.state, ref.warning_limit, ref.consecutive_above)
    assert ref.state == BURN
    assert type(state) is MonitorState and state.history == tuple(records)
    assert MonitorState(state.state, state.warning_limit, state.consecutive_above,
                        state.history) == state


def _random_bundle(rng, length, k, hold):
    """A bundle with random orthonormal loadings, mean in [0, 50] and unit direction."""
    loadings = np.linalg.qr(rng.standard_normal((length, k)))[0]
    pca = PcaModel(mean=rng.uniform(0.0, 50.0, length), loadings=loadings,
                   singular_values=np.sort(rng.uniform(1.0, 10.0, k))[::-1], n_train=None,
                   explained_variance_ratio=None)
    direction = rng.standard_normal(k)
    lda = LdaModel(direction=direction / np.linalg.norm(direction), class_means_ld=(-1.0, 1.0),
                   threshold=0.0, priors=(0.5, 0.5), ridge=0.0)
    return ModelBundle(resample_length=length, pca=pca, lda=lda,
                       monitor_config=MonitorConfig(0.5, hold), training_fingerprint="0" * 64)


def _random_times(rng, n, start, span):
    gaps = rng.uniform(0.1, 1.0, n - 1)
    times = start + span * np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    assume(np.all(times[1:] > times[:-1]))
    return times


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 20000), length=st.integers(2, 700), k=st.integers(1, 4),
       hold=st.integers(1, 3), start=st.floats(-1e3, 1e3), span=st.floats(1e-3, 1e4),
       n_bases=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_observe_is_within_rounding_of_resample_project_classify(n, length, k, hold, start,
                                                                 span, n_bases, seed):
    """The oracle for scoring on a trace's own time base.

    A stream of white-noise traces (the hardest case for rounding) over a few
    time bases, some passed as equal but distinct arrays.  Each pulled-back
    LD1 lies within 1e-12 (1 + |LD1|) of resample -> project -> classify, and
    the states are that route's until a score lies within the bound of a
    limit, where the two may part.
    """
    rng = np.random.default_rng(seed)
    assume(k <= length)
    bundle = _random_bundle(rng, length, k, hold)
    bases = [_random_times(rng, int(rng.integers(2, n + 1)), start, span)
             for _ in range(n_bases)]
    stream = []
    for i in range(12):
        times = bases[int(rng.integers(n_bases))]
        stream.append(PowerTrace(f"u{i}", "w", i, None, times.copy() if rng.random() < 0.3 else times,
                                 rng.uniform(0.0, 50.0, times.size)))
    ref_ld1 = [classify(bundle.lda, project(bundle.pca, resample(t, length)))[0] for t in stream]
    # limits that the stream straddles, so states move; LD1 keeps its direction
    low, high = min(ref_ld1), max(ref_ld1)
    threshold = low + 0.75 * (high - low)
    lda = LdaModel(direction=bundle.lda.direction, class_means_ld=(low - 1.0, threshold + 1.0),
                   threshold=threshold, priors=(0.5, 0.5), ridge=0.0)
    bundle = dataclasses.replace(bundle, lda=lda)
    state = ref = start_monitor(bundle)
    limits = (ref.warning_limit, threshold)
    for trace, ld1 in zip(stream, ref_ld1):
        bound = 1e-12 * (1 + abs(ld1))
        event, state = observe(state, bundle, trace)
        assert abs(event.ld1 - ld1) <= bound
        if any(abs(ld1 - limit) <= bound for limit in limits):
            break
        name, counter = _step(ref, ld1, threshold, hold)
        ref = MonitorState(name, ref.warning_limit, counter)
        assert (event.state, state.state, state.consecutive_above) == (name, name, counter)


def test_a_score_does_not_depend_on_what_was_scored_before(wheel1_bundle, monkeypatch):
    bundle = wheel1_bundle
    wheel2 = table2_preset(seed=42).wheel("wheel2")
    trace = generate_trace(wheel2, 700, 0)
    other_base = PowerTrace("o", "w", 0, None, trace.times * 0.5 + 3.0, trace.powers)
    equal_times = PowerTrace("e", "w", 0, None, trace.times.copy(), trace.powers)
    state = start_monitor(bundle)

    def ld1_hex(t):
        return observe(state, bundle, t)[0].ld1.hex()

    monkeypatch.setattr(monitor, "_pulled_back", (None, None, None, None))
    traces._grid.cache_clear()
    cold = ld1_hex(trace)
    assert ld1_hex(trace) == cold  # warm
    ld1_hex(other_base)
    assert ld1_hex(trace) == cold  # after another time base
    assert ld1_hex(equal_times) == cold  # an equal but distinct times array
    assert monitor._pulled_back[0] is equal_times.times
    ld1_hex(generate_trace(wheel2, 0, 0))
    assert ld1_hex(trace) == cold


def test_threads_sharing_the_memo_score_as_one_thread_does(wheel1_bundle):
    """observe's memo is one tuple read once, so no thread pairs its times with another's P."""
    wheel2 = table2_preset(seed=42).wheel("wheel2")
    bundles = [wheel1_bundle, _random_bundle(np.random.default_rng(5), 512, 2, 1)]
    traces_ = []
    for i, parts in enumerate((0, 500, 1000, 1500)):
        trace = generate_trace(wheel2, parts, 0)
        traces_.append(PowerTrace(f"u{i}", "w", parts, None, trace.times * (1 + i / 7) + i,
                                  trace.powers))
    jobs = [(b, t) for b in range(len(bundles)) for t in range(len(traces_))]

    def ld1_hex(b, t):
        bundle = bundles[b]
        return observe(start_monitor(bundle), bundle, traces_[t])[0].ld1.hex()

    expected = {job: ld1_hex(*job) for job in jobs}
    wrong = []

    def work(seed):
        order = np.random.default_rng(seed).integers(len(jobs), size=300)
        wrong.extend(jobs[i] for i in order if ld1_hex(*jobs[i]) != expected[jobs[i]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not wrong


def test_observe_refuses_a_bundle_of_resample_length_1():
    pca = PcaModel(mean=np.zeros(1), loadings=np.ones((1, 1)), singular_values=np.ones(1),
                   n_train=None, explained_variance_ratio=None)
    lda = LdaModel(direction=np.ones(1), class_means_ld=(-1.0, 1.0), threshold=0.0,
                   priors=(0.5, 0.5), ridge=0.0)
    bundle = ModelBundle(1, pca, lda, MonitorConfig(), "0" * 64)
    with pytest.raises(BadResampleLength, match="must be >= 2"):
        observe(start_monitor(bundle), bundle, trace_of(0.5))


def test_monitor_config_rejects_bool_hold_count():
    for bad in (True, False, 1.0, 0, -2):
        with pytest.raises(ValueError, match="hold_count"):
            MonitorConfig(hold_count=bad)
    assert MonitorConfig(hold_count=np.int64(2)).hold_count == 2


def test_transition_function_is_monotone_for_every_input():
    # every (state, counter, score region) combination, multiple hold counts
    for hold in (1, 2, 3):
        bundle = identity_bundle(hold_count=hold)
        regions = [-1.0, 0.5, 2.0]  # below warning, between, above threshold
        for state_name in (HEALTHY, WARNING, BURN):
            for counter in range(hold):
                for value in regions:
                    state = MonitorState(state=state_name,
                                         warning_limit=bundle.warning_limit(),
                                         consecutive_above=counter)
                    event, new = observe(state, bundle, trace_of(value))
                    assert STATE_ORDER[new.state] >= STATE_ORDER[state_name]
                    assert STATE_ORDER[new.state] - STATE_ORDER[state_name] <= 1


# _step on its own: warning limit 0, threshold 1, no traces involved
STEP_LIMIT, STEP_THRESHOLD = 0.0, 1.0
STEP_SCORES = [-1.0, 0.0, 0.5, 1.0, 2.0]  # three regions and both boundaries


def test_step_exhaustive():
    for hold in (1, 2, 3):
        for state_name in (HEALTHY, WARNING, BURN):
            for counter in range(hold):
                state = MonitorState(state=state_name, warning_limit=STEP_LIMIT,
                                     consecutive_above=counter)
                for ld1 in STEP_SCORES:
                    new_name, new_counter = _step(state, ld1, STEP_THRESHOLD, hold)
                    moved = STATE_ORDER[new_name] - STATE_ORDER[state_name]
                    assert moved in (0, 1)
                    if state_name == BURN:
                        assert (new_name, new_counter) == (BURN, counter)
                        continue
                    guard = STEP_LIMIT if state_name == HEALTHY else STEP_THRESHOLD
                    crossed = ld1 >= guard
                    assert moved == (crossed and counter + 1 == hold)
                    assert new_counter == (counter + 1 if crossed and not moved else 0)


def test_step_warns_before_burn_on_every_non_decreasing_sequence():
    for hold in (1, 2, 3):
        for length in range(1, 6):
            for scores in itertools.combinations_with_replacement(STEP_SCORES, length):
                state = MonitorState(state=HEALTHY, warning_limit=STEP_LIMIT)
                names = []
                for ld1 in scores:
                    name, counter = _step(state, ld1, STEP_THRESHOLD, hold)
                    state = MonitorState(state=name, warning_limit=STEP_LIMIT,
                                         consecutive_above=counter)
                    names.append(name)
                order = [STATE_ORDER[n] for n in names]
                assert order == sorted(order), scores
                if BURN in names:
                    assert WARNING in names[:names.index(BURN)], scores


@pytest.mark.parametrize("components", [None, 3])
def test_batch_and_stream_agree_on_wheel2(wheel1_bundle, wheel1_manifest, wheel2_manifest,
                                          components):
    # the batch scores a stack in one product, observe one row at a time
    bundle = wheel1_bundle
    if components is not None:
        bundle, _ = fit_bundle(wheel1_manifest, components=components)
    verdicts = predict_campaign(bundle, wheel2_manifest)
    assert len(verdicts) == 69
    state = start_monitor(bundle)
    for entry, verdict in zip(wheel2_manifest.entries, verdicts):
        trace = load_trace(wheel2_manifest.base_dir / entry.trace_file, entry)
        event, state = observe(state, bundle, trace)
        assert event.unit_id == verdict.unit_id
        assert event.label == verdict.label and type(verdict.label) is str
        assert abs(event.ld1 - verdict.ld1) <= 1e-12
        assert verdict.margin == verdict.ld1 - bundle.lda.threshold


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12))
def test_warning_strictly_precedes_burn_on_sorted_scores(values):
    events, _ = run(identity_bundle(), sorted(values))
    states = [e.state for e in events]
    if BURN in states:
        assert WARNING in states
        assert states.index(WARNING) < states.index(BURN)


def test_event_line_format():
    event = MonitorEvent(unit_id="w1-p00160-u00", ld1=1.2345678, label="Burn",
                         prev_state=WARNING, state=BURN, alert=True)
    line = format_event(event)
    assert line == '{"unit_id":"w1-p00160-u00","ld1":1.23457,"class":"Burn","state":"Burn","alert":true}'
    parsed = json.loads(line)
    assert list(parsed) == ["unit_id", "ld1", "class", "state", "alert"]


def test_replay_determinism():
    bundle = identity_bundle()
    lines = []
    for _ in range(2):
        events, _ = run(bundle, [-1.0, 0.5, 2.0, 3.0])
        lines.append("\n".join(format_event(e) for e in events))
    assert lines[0] == lines[1]


def test_start_monitor_rejects_inverted_geometry():
    # a threshold below the healthy mean leaves no room for a warning band
    bad = identity_bundle(mu_noburn=0.0, mu_burn=5.0, threshold=-1.0)
    with pytest.raises(CorruptModel):
        start_monitor(bad)


def test_bundle_cannot_be_made_from_a_nan_direction():
    # such a bundle would score every trace as ld1=nan and stay Healthy
    with pytest.raises(ValueError, match="direction must be finite"):
        identity_bundle(direction=np.array([np.nan]))


def test_every_array_of_a_fitted_or_loaded_model_refuses_writes(wheel1_bundle):
    loaded = load_model(model_to_json(wheel1_bundle).encode("utf-8"))
    for bundle in (wheel1_bundle, loaded):
        pca, lda = bundle.pca, bundle.lda
        arrays = [pca.mean, pca.loadings, pca.singular_values, lda.direction]
        if pca.explained_variance_ratio is not None:
            arrays.append(pca.explained_variance_ratio)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0
    assert loaded.pca.explained_variance_ratio is None
    assert wheel1_bundle.pca.explained_variance_ratio is not None


def test_copied_and_unpickled_models_are_remade_through_their_constructors(wheel1_bundle):
    loaded = load_model(model_to_json(wheel1_bundle).encode("utf-8"))
    for bundle in (wheel1_bundle, loaded):
        copies = (copy.copy(bundle), copy.deepcopy(bundle), pickle.loads(pickle.dumps(bundle)))
        for again in copies:
            # dataclass == compares arrays and raises, so compare the documents
            assert model_to_json(again) == model_to_json(bundle)
            for array in (again.pca.mean, again.pca.loadings, again.lda.direction):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0.0


def test_a_pickle_carrying_a_nan_direction_is_refused(wheel1_bundle):
    payload = pickle.dumps(wheel1_bundle)
    first = wheel1_bundle.lda.direction[:1].tobytes()
    assert payload.count(first) == 1  # the direction's first value, stored as raw bytes
    edited = payload.replace(first, np.array([np.nan]).tobytes())
    with pytest.raises(ValueError, match="direction must be finite"):
        pickle.loads(edited)


# --- persistence ---

def test_save_load_save_is_byte_identical(tmp_path, wheel1_bundle):
    first = tmp_path / "m1.json"
    save_model(wheel1_bundle, first)
    reloaded = load_model(first)
    buf = io.BytesIO()
    save_model(reloaded, buf)
    assert buf.getvalue() == first.read_bytes()


def test_reloaded_model_reproduces_verdicts(tmp_path, wheel1_bundle, wheel2_manifest):
    path = tmp_path / "m.json"
    save_model(wheel1_bundle, path)
    reloaded = load_model(path)
    original = predict_campaign(wheel1_bundle, wheel2_manifest)
    again = predict_campaign(reloaded, wheel2_manifest)
    assert [v.label for v in again] == [v.label for v in original]
    for a, b in zip(again, original):
        assert abs(a.ld1 - b.ld1) <= 1e-9


def test_model_document_fields_are_fixed():
    assert MODEL_FIELDS == (
        "class_means_ld", "direction", "format_version", "hold_count",
        "loadings", "mean", "priors", "resample_length", "ridge",
        "singular_values", "threshold", "training_fingerprint",
        "warning_fraction",
    )
    doc = json.loads(model_to_json(identity_bundle()))
    assert tuple(sorted(doc)) == MODEL_FIELDS


IDENTITY_MODEL_JSON = """\
{
  "class_means_ld": [
    -4.0,
    2.0
  ],
  "direction": [
    1.0
  ],
  "format_version": 1,
  "hold_count": 1,
  "loadings": [
    [
      1.0
    ],
    [
      0.0
    ]
  ],
  "mean": [
    0.0,
    0.0
  ],
  "priors": [
    0.5,
    0.5
  ],
  "resample_length": 2,
  "ridge": 0.0,
  "singular_values": [
    1.0
  ],
  "threshold": 1.0,
  "training_fingerprint": "0000000000000000000000000000000000000000000000000000000000000000",
  "warning_fraction": 0.8
}
"""


def test_model_document_text_is_fixed():
    # key order, indent, float repr and the trailing newline of the v1 file
    assert model_to_json(identity_bundle()) == IDENTITY_MODEL_JSON


def broken_json_values(value):
    """JSON texts that a field whose valid value is `value` must reject."""
    broken = [
        st.booleans().map(json.dumps), st.just("null"),
        st.just("[]"), st.just("[true]"), st.just("[[true]]"),
        st.just("[[1.0], [1.0, 2.0]]"), st.just(json.dumps([value])),
        st.sampled_from(["NaN", "1e999", "-1e999"]),
    ]
    if not isinstance(value, str):
        broken.append(st.text().map(json.dumps))
    if isinstance(value, list):  # one depth too few, one element too many or too few
        broken += [st.just(json.dumps(v)) for v in (value[0], value + value[-1:], value[:-1])]
    return st.one_of(broken)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_load_rejects_any_broken_field_by_name(data):
    doc = json.loads(IDENTITY_MODEL_JSON)
    field = data.draw(st.sampled_from(MODEL_FIELDS))
    raw = data.draw(broken_json_values(doc[field]))
    doc[field] = "<broken>"
    text = json.dumps(doc).replace('"<broken>"', raw)
    with pytest.raises((SchemaError, VersionMismatch, CorruptModel)) as err:
        load_model(text.encode())
    assert field in str(err.value)


def test_load_rejects_truncated_document():
    text = model_to_json(identity_bundle())
    with pytest.raises(SchemaError):
        load_model(text[: len(text) // 2].encode())


@pytest.mark.parametrize("text", [
    '{"format_version": 1' + "0" * 5000 + "}",  # beyond Python's int-parsing digit limit
    "[" * 100_000,  # beyond the JSON decoder's recursion limit
], ids=["digits", "depth"])
def test_load_rejects_json_the_decoder_refuses(text):
    with pytest.raises(SchemaError):
        load_model(text.encode())


def test_load_rejects_unknown_fields_as_version_drift():
    doc = json.loads(model_to_json(identity_bundle()))
    doc["smoothing_window"] = 5
    with pytest.raises(VersionMismatch):
        load_model(json.dumps(doc).encode())


def test_load_rejects_future_format_version():
    doc = json.loads(model_to_json(identity_bundle()))
    doc["format_version"] = 2
    with pytest.raises(VersionMismatch):
        load_model(json.dumps(doc).encode())


def test_load_rejects_missing_field():
    doc = json.loads(model_to_json(identity_bundle()))
    del doc["threshold"]
    with pytest.raises(SchemaError):
        load_model(json.dumps(doc).encode())


def test_load_rejects_non_finite_numbers():
    doc = json.loads(model_to_json(identity_bundle()))
    doc["threshold"] = float("nan")
    text = json.dumps(doc)  # python json emits bare NaN
    with pytest.raises(SchemaError):
        load_model(text.encode())
    for field, huge in (("threshold", 10**400), ("mean", [0.0, 10**400])):
        doc = json.loads(model_to_json(identity_bundle()))
        doc[field] = huge  # an integer literal no float can hold
        with pytest.raises(SchemaError):
            load_model(json.dumps(doc).encode())


def test_load_rejects_inconsistent_dimensions():
    doc = json.loads(model_to_json(identity_bundle()))
    doc["direction"] = [0.6, 0.8]
    with pytest.raises(CorruptModel):
        load_model(json.dumps(doc).encode())
    doc = json.loads(model_to_json(identity_bundle()))
    doc["resample_length"] = 3
    with pytest.raises(CorruptModel):
        load_model(json.dumps(doc).encode())


def test_load_rejects_huge_loading_without_numpy_warning(wheel1_bundle):
    # 1e300 squared overflows; the check must fail before any Gram product
    doc = json.loads(model_to_json(wheel1_bundle))
    doc["loadings"][0][0] = 1e300
    with pytest.raises(CorruptModel, match="orthonormal"):
        load_model(json.dumps(doc).encode())


def test_load_rejects_wrong_types():
    # true and 1.0 compare equal to format_version 1 but are not the integer 1
    for field, value in (("hold_count", "many"), ("mean", "zeros"),
                         ("format_version", True), ("format_version", 1.0)):
        doc = json.loads(model_to_json(identity_bundle()))
        doc[field] = value
        with pytest.raises(SchemaError):
            load_model(json.dumps(doc).encode())


def test_monitor_config_round_trips(tmp_path):
    bundle = identity_bundle(warning_fraction=0.55, hold_count=3)
    path = tmp_path / "m.json"
    save_model(bundle, path)
    again = load_model(path)
    assert again.monitor_config.warning_fraction == 0.55
    assert again.monitor_config.hold_count == 3
    assert again.training_fingerprint == bundle.training_fingerprint


def test_dense_replay_burns_no_earlier_than_labeled_onset(tmp_path):
    preset = default_preset(seed=42)
    train = ScenarioPreset(name="train", wheels=(preset.wheels[0],))
    bundle, _ = fit_bundle(generate_campaign(train, tmp_path))
    wheel3 = preset.wheel("wheel3")
    state = start_monitor(bundle)
    for parts in range(2000):
        event, state = observe(state, bundle, generate_trace(wheel3, parts, 0))
        if event.state == BURN:
            break
    assert event.state == BURN
    assert parts >= wheel3.burn_onset_parts, f"burn at {parts} parts"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), onset=st.integers(KNEE + 2, 2000))
def test_dense_replay_warns_before_any_onset_and_burns_after_it(seed, onset):
    """One trace per part: Warning before the onset, Burn at or after it, no regression.

    The onsets cover every onset a WheelScenario accepts, from KNEE + 2 on.
    KNEE + 1 is refused: there the first part past the knee is the onset
    itself, and a model that has not warned by the knee (about one seed in
    14) warns on the onset.
    """
    wheel1 = default_preset(seed=seed).wheels[0]
    traces = list(generate_wheel_traces(wheel1))
    X = np.stack([resample(t, DEFAULT_RESAMPLE_LENGTH) for t in traces])
    bundle, _ = fit_matrix(X, [t.label for t in traces], "dense-replay")
    wheel = WheelScenario("wheelx", ((0, 1),), onset, seed=seed)
    state = start_monitor(bundle)
    first = {}
    for parts in itertools.count():
        event, state = observe(state, bundle, generate_trace(wheel, parts, 0))
        assert STATE_ORDER[event.state] >= STATE_ORDER[event.prev_state]
        first.setdefault(event.state, parts)
        if event.state == BURN:
            break
    assert first[WARNING] < onset <= first[BURN], first
