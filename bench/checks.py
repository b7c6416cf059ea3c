"""Output checks for each workload.

Each check takes plain values (arrays, strings, tuples) and returns a list of
problems, empty when the output is correct.  Expected values come from the
independent reference (reference.py) or from properties the method must
have, never from a stored copy of an earlier run.
"""

from __future__ import annotations

import json
import math

import numpy as np

STATE_ORDER = {"Healthy": 0, "Warning": 1, "Burn": 2}
EXIT_CODE = {"Healthy": 0, "Warning": 3}


def _close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def expected_confusion(parts_ground, onset: int) -> list[list[int]]:
    """Counts a perfect classifier gives when units at or past onset are Burn."""
    burn = sum(1 for p in parts_ground if p >= onset)
    return [[len(parts_ground) - burn, 0], [0, burn]]


def check_crosswheel(out: dict, ref, ref_ld1: dict, expected: dict, tol: float = 1e-8) -> list[str]:
    """One crosswheel step.

    out holds `loadings`, `threshold`, `warning_limit`, `ld1` and
    `confusion` (both dicts by wheel), `saved` (the model file's bytes) and
    `reserialized` (the loaded model serialised again).
    """
    problems = []
    for wheel, counts in expected.items():
        got = np.asarray(out["confusion"][wheel]).tolist()
        if got != counts:
            problems.append(f"{wheel}: confusion matrix {got} != {counts}")
        if not _close(out["ld1"][wheel], ref_ld1[wheel], tol):
            problems.append(f"{wheel}: LD1 scores differ from the reference by more than {tol}")
    if not _close(out["loadings"], ref.loadings, tol):
        problems.append(f"PCA loadings differ from the reference by more than {tol}")
    if not _close(out["threshold"], ref.threshold, tol):
        problems.append(f"threshold {out['threshold']!r} != reference {ref.threshold!r}")
    if not _close(out["warning_limit"], ref.warning_limit, tol):
        problems.append(f"warning limit {out['warning_limit']!r} != reference {ref.warning_limit!r}")
    if out["saved"] != out["reserialized"]:
        problems.append("a saved and reloaded model does not serialise to the same bytes")
    return problems


def check_lifetime(events, parts, ref_ld1, onset: int, warning_limit: float, threshold: float,
                   tol: float = 1e-9) -> list[str]:
    """One monitor lifetime.

    events are (prev_state, state, alert, post_failure, ld1) in observation
    order from a fresh Healthy state; parts[i] and ref_ld1[i] are the wear
    level and the reference LD1 of observation i.  The states must also be
    those of a replay of the reference LD1 against the reference limits,
    one crossing per state change (hold count 1).
    """
    problems = []
    last = expected = "Healthy"
    first_warning = first_burn = None
    for i, (prev, state, alert, post_failure, _) in enumerate(events):
        if expected == "Healthy" and ref_ld1[i] >= warning_limit:
            expected = "Warning"
        elif expected == "Warning" and ref_ld1[i] >= threshold:
            expected = "Burn"
        if state != expected:
            problems.append(f"obs {i}: state {state}, the reference replay gives {expected}")
        if prev != last:
            problems.append(f"obs {i}: prev_state {prev} but the last state was {last}")
        step = STATE_ORDER[state] - STATE_ORDER[prev]
        if step not in (0, 1):
            problems.append(f"obs {i}: state moved {prev} -> {state}")
        if alert != (state != prev):
            problems.append(f"obs {i}: alert={alert} on {prev} -> {state}")
        if post_failure != (prev == "Burn"):
            problems.append(f"obs {i}: post_failure={post_failure} after {prev}")
        if state == "Warning" and first_warning is None:
            first_warning = i
        if state == "Burn" and first_burn is None:
            first_burn = i
        last = state
        if len(problems) > 20:
            break
    if first_warning is None:
        problems.append("the monitor never warned")
    else:
        if first_burn is not None and first_burn <= first_warning:
            problems.append("Burn came before Warning")
        if parts[first_warning] >= onset:
            problems.append(f"first Warning at {parts[first_warning]} parts, not before onset {onset}")
    ld1 = np.array([e[4] for e in events])
    if not _close(ld1, ref_ld1, tol):
        problems.append(f"LD1 differs from the reference by more than {tol}")
    return problems


def check_cli(stdout: str, exit_code: int, ref_ld1: float, threshold: float, warning_limit: float) -> list[str]:
    """One `grindmon monitor` process on one trace."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"expected one output line, got {len(lines)}"]
    try:
        event = json.loads(lines[0])
    except json.JSONDecodeError:
        return [f"output is not JSON: {lines[0]!r}"]
    problems = []
    ld1 = event.get("ld1")
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref_ld1))) - 5)
    if not isinstance(ld1, (int, float)) or abs(ld1 - ref_ld1) > half_unit * (1 + 1e-9):
        problems.append(f"ld1 {ld1!r} is not the reference {ref_ld1!r} to 6 significant digits")
    want_class = "Burn" if ref_ld1 >= threshold else "NoBurn"
    if event.get("class") != want_class:
        problems.append(f"class {event.get('class')!r}, expected {want_class}")
    want_state = "Warning" if ref_ld1 >= warning_limit else "Healthy"
    if event.get("state") != want_state:
        problems.append(f"state {event.get('state')!r}, expected {want_state}")
    if exit_code != EXIT_CODE[want_state]:
        problems.append(f"exit code {exit_code}, expected {EXIT_CODE[want_state]}")
    return problems
