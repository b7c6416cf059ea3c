"""Whatever a constructor rejects, it rejects with a GrindmonError or a ValueError.

A caller that builds grindmon's objects from outside data catches those two
and nothing else; a TypeError or OverflowError from deep inside numpy would
escape it.  Starting from a valid object's fields, every odd value below is
tried in every field, and a property replaces any fields together; each time
the constructor must succeed or raise one of the two.
"""

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
    TraceMatrix,
    WheelScenario,
)
from grindmon.errors import GrindmonError
from grindmon.monitor import MonitorState

ENTRY = ManifestEntry("a.csv", "u", "w", 0, 1)
PCA = PcaModel(mean=np.zeros(2), loadings=np.array([[1.0], [0.0]]),
               singular_values=np.array([1.0]), n_train=None, explained_variance_ratio=None)
LDA = LdaModel(direction=np.array([1.0]), class_means_ld=(-4.0, 2.0), threshold=1.0,
               priors=(0.5, 0.5), ridge=0.0)
CONFIG = MonitorConfig()

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
