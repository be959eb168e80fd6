"""Independent label correction, transcribed from the rule in hlc.py's docstring.

  * start-of-step at t: the current label makes up at least sigma_s of the
    next T_s labels (window truncated at the sequence end); UNKNOWN never
    starts a step,
  * end-of-step at t: there is no window of the next 0..T_e labels in which
    the step label still reaches a sigma_e share,
  * while a step is open every position is rewritten to the step label;
    positions covered by no step become UNKNOWN; when a step closes the start
    test is re-evaluated at the same position.

It shares no code with `facelight.hlc`; the benchmark compares the two.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

UNKNOWN = -1


def starts(y: Sequence[int], i: int, sigma_s: float, t_s: int) -> bool:
    """Start test at 0-based position i."""
    if y[i] == UNKNOWN:
        return False
    window = y[i : i + t_s]
    return window.count(y[i]) / len(window) >= sigma_s


def still_open(y: Sequence[int], step: int, i: int, sigma_e: float, t_e: int) -> bool:
    """Negated end test at 0-based position i: some window keeps the step."""
    for length in range(1, min(t_e + 1, len(y) - i) + 1):
        if y[i : i + length].count(step) / length >= sigma_e:
            return True
    return False


def reference_correct(labels, sigma_s: float, t_s: int, sigma_e: float, t_e: int) -> Tuple[int, ...]:
    y = [int(v) for v in labels]
    out: List[int] = []
    step = None
    for i in range(len(y)):
        if step is not None and not still_open(y, step, i, sigma_e, t_e):
            step = None
        if step is None and starts(y, i, sigma_s, t_s):
            step = y[i]
        out.append(UNKNOWN if step is None else step)
    return tuple(out)


def step_violations(corrected: Sequence[int], labels: Sequence[int], sigma_s: float, t_s: int) -> List[str]:
    """Properties every corrected sequence has, whatever the window settings.

    Same length as the input; every label is UNKNOWN or one of the input's;
    each maximal run of a label begins where the input holds that label and
    the start test passes.
    """
    y = [int(v) for v in labels]
    c = [int(v) for v in corrected]
    if len(c) != len(y):
        return [f"length {len(c)} != {len(y)}"]
    problems = []
    allowed = set(y) | {UNKNOWN}
    if not set(c) <= allowed:
        problems.append(f"labels {sorted(set(c) - allowed)} not in the input")
    for i, v in enumerate(c):
        if v == UNKNOWN or (i > 0 and c[i - 1] == v):
            continue
        if y[i] != v or not starts(y, i, sigma_s, t_s):
            problems.append(f"step of {v} at {i + 1} has no valid start")
    return problems
