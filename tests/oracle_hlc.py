"""Reference label correction: the position-by-position loop.

Each test rebuilds its window from the label tuple, so a correction costs
time quadratic in the sequence length.  `facelight.hlc.correct_labels` is
the one-pass replacement and is held to these labels.
"""

from typing import List, Sequence, Tuple

from facelight.errors import DomainError
from facelight.hlc import DEFAULT_TIMESTEP, HlcParams, LabelSequence
from facelight.labels import UNKNOWN


def _labels_of(y) -> Tuple[int, ...]:
    if isinstance(y, LabelSequence):
        return y.labels
    return tuple(int(v) for v in y)


def count_label(label: int, segment: Sequence[int]) -> int:
    """Occurrences of `label` in the segment (UNKNOWN equals only UNKNOWN)."""
    return sum(1 for v in segment if v == label)


def start_of_step(y, t: int, params: HlcParams) -> bool:
    """Does a step start at 1-based position t?

    True when y[t] holds at least a sigma_s share of the window
    y[t .. min(t + T_s - 1, T)].  UNKNOWN never starts a step.
    """
    labels = _labels_of(y)
    if not 1 <= t <= len(labels):
        raise DomainError(f"position {t} out of range [1, {len(labels)}]")
    current = labels[t - 1]
    if current == UNKNOWN:
        return False
    window = labels[t - 1 : min(t - 1 + params.t_s, len(labels))]
    return count_label(current, window) / len(window) >= params.sigma_s


def end_of_step(y, step_label: int, t: int, params: HlcParams) -> bool:
    """Has the step with `step_label` ended by 1-based position t?

    False when some window y[t .. t + tau], tau <= min(T_e, T - t), still
    contains the step label with share >= sigma_e; True otherwise.
    """
    labels = _labels_of(y)
    if not 1 <= t <= len(labels):
        raise DomainError(f"position {t} out of range [1, {len(labels)}]")
    max_tau = min(params.t_e, len(labels) - t)
    hits = 0
    for tau in range(0, max_tau + 1):
        if labels[t - 1 + tau] == step_label:
            hits += 1
        if hits / (tau + 1) >= params.sigma_e:
            return False
    return True


def correct_labels(y, params: HlcParams = HlcParams()) -> LabelSequence:
    """Rewrite a predicted sequence into steps; off-step positions become UNKNOWN."""
    labels = _labels_of(y)
    timestep = y.timestep if isinstance(y, LabelSequence) else DEFAULT_TIMESTEP
    total = len(labels)
    out: List[int] = []
    t = 1
    while t <= total:
        if start_of_step(labels, t, params):
            step = labels[t - 1]
            out.append(step)
            t += 1
            while t <= total and not end_of_step(labels, step, t, params):
                out.append(step)
                t += 1
            # step closed: re-test start at this same position
        else:
            out.append(UNKNOWN)
            t += 1
    return LabelSequence(tuple(out), timestep)
