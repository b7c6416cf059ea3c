"""Whatever a constructor rejects, it rejects with a GrindmonError or a ValueError.

A caller that builds grindmon's objects from outside data catches those two
and nothing else; a TypeError or OverflowError from deep inside numpy would
escape it.  Starting from a valid object's fields, every odd value below is
tried in every field, and a property replaces any fields together; each time
the constructor must succeed or raise one of the two.

REFUSED is the other half: for every init field of every constructor, values
that field's own check refuses.  Deleting any one field check lets one of
them through, and a field added without an entry fails the test too.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grindmon import (
    CampaignManifest,
    LdaModel,
    ManifestEntry,
    ModelBundle,
    MonitorConfig,
    PcaModel,
    PowerTrace,
    ScenarioPreset,
    TraceMatrix,
    WheelScenario,
)
from grindmon import lda, monitor, pca, pipeline, simulate, traces
from grindmon.errors import GrindmonError
from grindmon.monitor import MonitorState

ENTRY = ManifestEntry("a.csv", "u", "w", 0, 1)
PCA = PcaModel(mean=np.zeros(2), loadings=np.array([[1.0], [0.0]]),
               singular_values=np.array([1.0]), n_train=None, explained_variance_ratio=None)
LDA = LdaModel(direction=np.array([1.0]), class_means_ld=(-4.0, 2.0), threshold=1.0,
               priors=(0.5, 0.5), ridge=0.0)
CONFIG = MonitorConfig()
WHEEL = WheelScenario("w", ((0, 1),), 1200)

VALID = {  # a constructor and keyword arguments it accepts
    PowerTrace: dict(unit_id="u", wheel_id="w", parts_ground=0, burn_rank=None,
                     times=[0.0, 0.05], powers=[1.0, 2.0]),
    ManifestEntry: dict(trace_file="a.csv", unit_id="u", wheel_id="w", parts_ground=0,
                        burn_rank=1),
    CampaignManifest: dict(entries=(ENTRY,), base_dir="."),
    TraceMatrix: dict(values=np.zeros((1, 2)), meta=(ENTRY,), resample_length=2),
    WheelScenario: dict(wheel_id="w", checkpoints=((0, 1),), burn_onset_parts=1200, seed=42),
    MonitorConfig: dict(warning_fraction=0.8, hold_count=1),
    PcaModel: dict(mean=np.zeros(2), loadings=np.array([[1.0], [0.0]]),
                   singular_values=np.array([1.0]), n_train=None, explained_variance_ratio=None),
    LdaModel: dict(direction=np.array([1.0]), class_means_ld=(-4.0, 2.0), threshold=1.0,
                   priors=(0.5, 0.5), ridge=0.0),
    ModelBundle: dict(resample_length=2, pca=PCA, lda=LDA, monitor_config=CONFIG,
                      training_fingerprint="0" * 64),
    MonitorState: dict(state="Healthy", warning_limit=0.0, consecutive_above=0, history=()),
    ScenarioPreset: dict(name="p", wheels=(WHEEL,)),
}

REFUSED = {  # (constructor, init field): values that field alone refuses, all else valid
    (PowerTrace, "unit_id"): [None, " u", "u\n"],
    (PowerTrace, "wheel_id"): [1, "w\r"],
    (PowerTrace, "parts_ground"): [-1, 2.5, True],
    (PowerTrace, "burn_rank"): [0, 4, 2.0],
    (PowerTrace, "times"): [["0", "1"], [1.0, 0.0], [0.0], [0.0, float("nan")], [0.0, 5e-324]],
    (PowerTrace, "powers"): [[1.0, float("inf")], [1.0], [[1.0, 2.0]], [1e308, -1e308]],
    (ManifestEntry, "trace_file"): [None, "a.csv "],
    (ManifestEntry, "unit_id"): [" u"],
    (ManifestEntry, "wheel_id"): ["w\n"],
    (ManifestEntry, "parts_ground"): [-1, "0"],
    (ManifestEntry, "burn_rank"): [0, True],
    (CampaignManifest, "entries"): [None, ("x",), (ENTRY, ENTRY),
                                    (ManifestEntry("b.csv", "v", "w", 5, 1), ENTRY)],
    (CampaignManifest, "base_dir"): [None, 1],
    (TraceMatrix, "values"): [np.zeros((0, 2)), np.zeros(2), [[0.0, float("nan")]], [["0", "1"]]],
    (TraceMatrix, "meta"): [("x",), (), None],
    (TraceMatrix, "resample_length"): [2.0, 3, np.float64(2.0), True],
    (WheelScenario, "wheel_id"): ["", "..", "a/b", " w", 1],
    (WheelScenario, "checkpoints"): [None, ((1, 1), (0, 1)), ((-1, 1),), ((0,),), ((0.5, 1),)],
    (WheelScenario, "burn_onset_parts"): [1126, 1200.0, "x"],
    (WheelScenario, "seed"): ["x", 1.5, None, True],
    (MonitorConfig, "warning_fraction"): [0.0, 1.0, "x", float("nan")],
    (MonitorConfig, "hold_count"): [0, 1.5, True],
    (PcaModel, "mean"): [None, np.zeros(3), [0.0, float("nan")]],
    (PcaModel, "loadings"): [np.array([[2.0], [0.0]]), np.array([[0.6], [0.6]]),
                             np.array([[1.0], [float("inf")]])],
    (PcaModel, "singular_values"): [np.array([-1.0]), np.array([1.0, 0.5])],
    (PcaModel, "n_train"): ["x", -3, 1, 2.5],
    (PcaModel, "explained_variance_ratio"): [np.array([2.0]), np.array([-0.1]),
                                             np.array([0.5, 0.5])],
    (LdaModel, "direction"): [np.array([2.0]), np.array([float("nan")]), "x"],
    (LdaModel, "class_means_ld"): [(2.0, -4.0), (1.0,), (0.0, float("inf"))],
    (LdaModel, "threshold"): [float("nan"), "x"],
    (LdaModel, "priors"): [(0.3, 0.3), (0.0, 1.0), (1.0,)],
    (LdaModel, "ridge"): [-1.0, float("inf")],
    (ModelBundle, "resample_length"): [3, 2.0],
    (ModelBundle, "pca"): [None, LDA, PcaModel(np.array([1e308, 0.0]), np.array([[1.0], [0.0]]),
                                              np.array([1.0]), None, None)],
    (ModelBundle, "lda"): [None, PCA, LdaModel(np.array([0.6, 0.8]), (-4.0, 2.0), 1.0,
                                                (0.5, 0.5), 0.0)],
    (ModelBundle, "monitor_config"): [None, {}],
    (ModelBundle, "training_fingerprint"): [None, 0],
    (MonitorState, "state"): ["Bogus", None, []],
    (MonitorState, "warning_limit"): ["x", None, float("nan"), float("inf"), float("-inf")],
    (MonitorState, "consecutive_above"): ["x", None, -5, 2.5],
    (MonitorState, "history"): [None, 5],
    (ScenarioPreset, "name"): [None, 1],
    (ScenarioPreset, "wheels"): [None, "ab", (WHEEL, WHEEL)],
}

POOL = [  # odd values, each tried in every field of every constructor
    None, "", "x", "1.5", b"1", True, 1j, 10**400, -10**400, 1126, 1127, float("nan"),
    (), [], {}, object(), Path("."), [None], [1.0, None], [0, 10**400], ["a", "b"],
    [[1, 2], [3]], [(0, 1, 2)], [("a", 1)], [(1.5, 2)], ((-1, 1),), [1e308, -1e308],
    np.array([]), np.array([1j, 2j]), np.complex128(1j), [np.complex128(1j), 1.0],
    np.array([[1.0], [0.0]]),
    np.float64("nan"), np.int64(3), np.array(["a"]), np.array([None], dtype=object),
    ["0", "1_0"], [" 1.5", "2"], ["-4", "2"], ["0.5", "0.5"], [False, True],
    ENTRY, PCA, LDA, CONFIG,
]
ODD = st.one_of(
    st.sampled_from(POOL),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=3),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=2),
)


def escapes(cls, kwargs) -> str | None:
    """The exception other than GrindmonError and ValueError that cls(**kwargs) raises."""
    try:
        cls(**kwargs)
    except (GrindmonError, ValueError):
        pass
    except Exception as exc:  # any other type is the failure under test
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_every_odd_value_in_every_field(cls):
    found = {}
    for field in VALID[cls]:
        for i, value in enumerate(POOL):
            escape = escapes(cls, {**VALID[cls], field: value})
            if escape:
                found[field, i] = escape
    assert not found, found


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_odd_fields_together(cls, data):
    kwargs = data.draw(st.fixed_dictionaries(
        {name: st.one_of(st.just(value), ODD) for name, value in VALID[cls].items()}))
    assert escapes(cls, kwargs) is None


@pytest.mark.parametrize("cls, field, value", [
    (WheelScenario, "checkpoints", None),
    (WheelScenario, "burn_onset_parts", "x"),
    (MonitorConfig, "warning_fraction", "x"),
    (MonitorConfig, "warning_fraction", None),
    (LdaModel, "threshold", "x"),
    (LdaModel, "class_means_ld", None),
    (PcaModel, "mean", None),
    (CampaignManifest, "entries", None),
    (PowerTrace, "times", [0, 10**400]),
])
def test_each_escape_once_seen_is_now_a_value_error(cls, field, value):
    with pytest.raises(ValueError):
        cls(**{**VALID[cls], field: value})


@pytest.mark.parametrize("cls, fields", [
    (PowerTrace, dict(times=["0", "1_0"], powers=[" 1.5", "2"])),
    (PowerTrace, dict(times=[False, True])),
    (PowerTrace, dict(powers=np.array([1, 2], dtype=object))),
    (LdaModel, dict(class_means_ld=["-4", "2"], priors=["0.5", "0.5"])),
    (LdaModel, dict(direction=[True])),
    (PcaModel, dict(mean=["0", "0"])),
    (TraceMatrix, dict(values=[["0", "1"]])),
])
def test_numeric_arrays_refuse_strings_bools_and_objects(cls, fields):
    """numpy would parse "1_0" as 10 and read False, True as 0, 1; neither is accepted."""
    with pytest.raises(ValueError, match="must be an array of real numbers"):
        cls(**{**VALID[cls], **fields})


def test_numeric_arrays_take_integers_and_floats_of_any_width():
    trace = PowerTrace(**{**VALID[PowerTrace], "times": np.array([0, 1], dtype=np.uint8),
                          "powers": np.array([1.5, 2.0], dtype=np.float32)})
    assert trace.times.dtype == trace.powers.dtype == np.float64
    assert trace.times.tolist() == [0.0, 1.0] and trace.powers.tolist() == [1.5, 2.0]


def refuses(cls, kwargs) -> bool:
    try:
        cls(**kwargs)
    except (GrindmonError, ValueError):
        return True
    return False


def test_every_checked_constructor_has_valid_fields():
    """Each grindmon dataclass with a __post_init__ is in VALID (11 today), and its entry builds."""
    modules = (traces, simulate, pca, lda, monitor, pipeline)
    checked = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and "__post_init__" in vars(cls)}
    assert checked == set(VALID) and len(VALID) == 11
    for cls, kwargs in VALID.items():
        cls(**kwargs)


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_every_init_field_refuses_its_listed_values(cls):
    """The oracle for field checks: each init field has refused values, and none is accepted."""
    unlisted = [f.name for f in dataclasses.fields(cls) if f.init and (cls, f.name) not in REFUSED]
    assert not unlisted, f"init fields with no REFUSED entry: {unlisted}"
    accepted = [(field, value) for (c, field), values in REFUSED.items() if c is cls
                for value in values if not refuses(cls, {**VALID[cls], field: value})]
    assert not accepted, f"accepted: {accepted}"


@pytest.mark.parametrize("value", ["x", None, -5, 2.5])
def test_consecutive_above_must_be_a_non_negative_integer(value):
    with pytest.raises(ValueError, match="consecutive_above must be a non-negative integer"):
        MonitorState("Healthy", 0.0, value)
