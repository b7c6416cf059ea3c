"""Each check passes a correct output and fails each corruption of it."""

import json

import numpy as np
import pytest

import checks
import reference


def test_expected_confusion_for_the_table2_wheels():
    wheel2 = [180] * 17 + [709] * 17 + [774] * 16 + [1125] * 16 + [1400] * 3
    wheel3 = [200] * 12 + [680] * 12 + [900] * 12 + [1200] * 11 + [1600] * 3
    assert checks.expected_confusion(wheel2, 1300) == [[66, 0], [0, 3]]
    assert checks.expected_confusion(wheel3, 1400) == [[47, 0], [0, 3]]


# --- cli-monitor ---

REF_LD1, THRESHOLD, WARNING = 1.234567891, 2.0, 1.0


def cli_line(**changes):
    event = {"unit_id": "u", "ld1": 1.23457, "class": "NoBurn", "state": "Warning", "alert": True}
    event.update(changes)
    return json.dumps(event) + "\n"


def test_cli_accepts_a_correct_event():
    assert checks.check_cli(cli_line(), 3, REF_LD1, THRESHOLD, WARNING) == []
    healthy = cli_line(ld1=0.5, state="Healthy", alert=False)
    assert checks.check_cli(healthy, 0, 0.5000001, THRESHOLD, WARNING) == []
    burn = cli_line(ld1=2.5, **{"class": "Burn"})
    assert checks.check_cli(burn, 3, 2.5, THRESHOLD, WARNING) == []


@pytest.mark.parametrize("stdout, code", [
    (cli_line() * 2, 3),
    ("not json\n", 3),
    ("", 3),
    (cli_line(ld1=1.2345), 3),
    (cli_line(**{"class": "Burn"}), 3),
    (cli_line(state="Healthy"), 3),
    (cli_line(state="Burn"), 3),
    (cli_line(), 0),
    (cli_line(), 4),
])
def test_cli_rejects_a_corrupted_event(stdout, code):
    assert checks.check_cli(stdout, code, REF_LD1, THRESHOLD, WARNING)


# --- lifetime-stream ---

PARTS = list(range(0, 1000, 100))
REF = np.linspace(0.0, 9.0, 10)
STATES = ["Healthy"] * 5 + ["Warning"] * 2 + ["Burn"] * 3
ONSET = 800
LIMITS = (4.5, 6.5)  # warning limit, threshold: Warning at LD1 5, Burn at LD1 7


def lifetime_events(states=STATES, ld1=REF):
    rows, prev = [], "Healthy"
    for state, score in zip(states, ld1):
        rows.append((prev, state, state != prev, prev == "Burn", float(score)))
        prev = state
    return rows


def test_lifetime_accepts_a_correct_stream():
    assert checks.check_lifetime(lifetime_events(), PARTS, REF, ONSET, *LIMITS) == []


def corrupt(index, field, value):
    rows = lifetime_events()
    row = list(rows[index])
    row[field] = value
    rows[index] = tuple(row)
    return rows


@pytest.mark.parametrize("rows", [
    lifetime_events(states=["Healthy"] * 5 + ["Warning", "Healthy", "Burn", "Burn", "Burn"]),
    lifetime_events(states=["Healthy"] * 5 + ["Burn"] * 5),
    lifetime_events(states=["Healthy"] * 10),
    lifetime_events(states=["Healthy"] * 8 + ["Warning"] * 2),
    lifetime_events(ld1=REF + 1e-6),
    lifetime_events(states=["Healthy"] * 6 + ["Warning"] + ["Burn"] * 3),
    lifetime_events(states=["Healthy"] * 5 + ["Warning"] * 3 + ["Burn"] * 2),
    corrupt(3, 2, True),
    corrupt(5, 2, False),
    corrupt(8, 3, False),
    corrupt(2, 3, True),
    corrupt(4, 0, "Warning"),
])
def test_lifetime_rejects_a_corrupted_stream(rows):
    assert checks.check_lifetime(rows, PARTS, REF, ONSET, *LIMITS)


# --- crosswheel ---

REF_MODEL = reference.RefModel(
    mean=np.zeros(3),
    loadings=np.array([[0.6], [0.8], [0.0]]),
    direction=np.array([1.0]),
    mu_noburn=0.0,
    mu_burn=4.0,
    threshold=2.5,
)
REF_CW_LD1 = {"wheel2": np.array([0.5, 3.0]), "wheel3": np.array([1.0, 4.0])}
EXPECTED = {"wheel2": [[1, 0], [0, 1]], "wheel3": [[1, 0], [0, 1]]}


def crosswheel_output(**changes):
    out = {
        "loadings": REF_MODEL.loadings.copy(),
        "threshold": REF_MODEL.threshold,
        "warning_limit": REF_MODEL.warning_limit,
        "ld1": {w: v.copy() for w, v in REF_CW_LD1.items()},
        "confusion": {w: [row[:] for row in c] for w, c in EXPECTED.items()},
        "saved": b"{}\n",
        "reserialized": b"{}\n",
    }
    out.update(changes)
    return out


def test_crosswheel_accepts_a_correct_step():
    assert checks.check_crosswheel(crosswheel_output(), REF_MODEL, REF_CW_LD1, EXPECTED) == []


@pytest.mark.parametrize("changes", [
    {"confusion": {"wheel2": [[0, 1], [0, 1]], "wheel3": [[1, 0], [0, 1]]}},
    {"ld1": {"wheel2": np.array([0.5, 3.0 + 1e-7]), "wheel3": np.array([1.0, 4.0])}},
    {"ld1": {"wheel2": np.array([0.5]), "wheel3": np.array([1.0, 4.0])}},
    {"loadings": np.array([[0.6], [0.8], [1e-7]])},
    {"loadings": np.array([[-0.6], [-0.8], [0.0]])},
    {"threshold": 2.5 + 1e-7},
    {"warning_limit": 2.0 + 1e-7},
    {"reserialized": b"{} \n"},
])
def test_crosswheel_rejects_a_corrupted_step(changes):
    assert checks.check_crosswheel(crosswheel_output(**changes), REF_MODEL, REF_CW_LD1, EXPECTED)


def test_import_times_sums_each_packages_outermost_modules():
    from worker import import_times

    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.stats._x",
        "import time:        40 |         45 |     scipy.stats",
        "import time:         7 |         82 |   grindmon.pipeline",
        "import time:         3 |        235 | grindmon",
    ])
    assert import_times(stderr) == {"numpy": 150.0, "scipy": 75.0, "click": 0.0}
