"""Heuristic label correction: rewrite a noisy label sequence as a step function.

Users keep an application open for a while, so the true label sequence is
piecewise constant.  The correction scans the predicted sequence with two
tests:

  * start-of-step at t: the current label makes up at least sigma_s of the
    next T_s labels (window truncated at the sequence end),
  * end-of-step at t: there is NO window of the next 0..T_e labels in which
    the running step label still reaches a sigma_e share.

While a step is open every position is rewritten to the step label; positions
covered by no step become UNKNOWN.  When a step closes the start test is
re-evaluated at the same position.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import DomainError
from .labels import UNKNOWN, accuracy

DEFAULT_TIMESTEP = 0.5


@dataclass(frozen=True)
class LabelSequence:
    """Ordered unified labels sampled every `timestep` seconds."""

    labels: Tuple[int, ...]
    timestep: float = DEFAULT_TIMESTEP

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        if len(labels) < 1:
            raise DomainError("label sequence must have length >= 1")
        if min(labels) < UNKNOWN:
            raise DomainError(f"labels must be >= {UNKNOWN}, got {min(labels)}")
        if self.timestep <= 0:
            raise DomainError(f"timestep must be > 0, got {self.timestep}")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class HlcParams:
    """Start/end window thresholds; defaults are the empirically strong setting."""

    sigma_s: float = 0.90
    t_s: int = 10
    sigma_e: float = 0.10
    t_e: int = 10

    def __post_init__(self):
        if not 0.5 <= self.sigma_s < 1.0:
            raise DomainError(f"sigma_s must lie in [0.5, 1), got {self.sigma_s}")
        if self.t_s < 1:
            raise DomainError(f"T_s must be >= 1, got {self.t_s}")
        if not 0.0 < self.sigma_e <= 0.5:
            raise DomainError(f"sigma_e must lie in (0, 0.5], got {self.sigma_e}")
        if self.t_e < 0:
            raise DomainError(f"T_e must be >= 0, got {self.t_e}")


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


def sweep_params(y, truth, grid: Iterable[HlcParams]) -> List[Tuple[HlcParams, float]]:
    """Correction accuracy against the truth for every parameter combination."""
    labels = _labels_of(y)
    truth_labels = _labels_of(truth)
    if len(labels) != len(truth_labels):
        raise DomainError(f"sequence lengths differ: {len(labels)} vs {len(truth_labels)}")
    rows = []
    for params in grid:
        corrected = correct_labels(labels, params)
        rows.append((params, accuracy(corrected.labels, truth_labels)))
    return rows


def param_grid(sigma_s_values, t_s_values, sigma_e_values, t_e_values) -> List[HlcParams]:
    return [
        HlcParams(ss, ts, se, te)
        for ss in sigma_s_values
        for ts in t_s_values
        for se in sigma_e_values
        for te in t_e_values
    ]


def write_label_sequence(path, seq) -> None:
    """CSV with header t,label_index; t is 1-based, UNKNOWN encodes as -1."""
    labels = _labels_of(seq)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "label_index"])
        for t, v in enumerate(labels, start=1):
            writer.writerow([t, v])


def read_label_sequence(path, timestep: float = DEFAULT_TIMESTEP) -> LabelSequence:
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "label_index"]:
            raise DomainError(f"{path}: expected header t,label_index, got {header}")
        labels = []
        for row in reader:
            if not row:
                continue
            try:
                labels.append(int(row[1]))
            except (IndexError, ValueError):
                raise DomainError(f"{path}:{reader.line_num}: expected t,label_index, got {row}") from None
    if not labels:
        raise DomainError(f"{path}: empty label sequence")
    try:
        return LabelSequence(tuple(labels), timestep)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def write_sweep_csv(path, rows: Sequence[Tuple[HlcParams, float]]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_s", "T_s", "sigma_e", "T_e", "accuracy"])
        for params, acc in rows:
            writer.writerow(
                [repr(params.sigma_s), params.t_s, repr(params.sigma_e), params.t_e, repr(acc)]
            )
