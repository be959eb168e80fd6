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

`correct_labels` makes one forward pass holding the open step.  The window
counts come from each label's sorted positions, built once per call, so the
start test is two bisections and the end test visits only the step label's
positions inside its window.  Both tests keep the float expressions of the
position-by-position definition (`count / length >= sigma`), so the labels
equal those of the loop in `tests/oracle_hlc.py`.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

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
        if not 0 < self.timestep < math.inf:
            raise DomainError(f"timestep must be finite and > 0, got {self.timestep}")
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


def correct_labels(y, params: HlcParams = HlcParams()) -> LabelSequence:
    """Rewrite a predicted sequence into steps; off-step positions become UNKNOWN."""
    labels = _labels_of(y)
    timestep = y.timestep if isinstance(y, LabelSequence) else DEFAULT_TIMESTEP
    total = len(labels)
    positions: Dict[int, List[int]] = {}
    for i, v in enumerate(labels):
        positions.setdefault(v, []).append(i)
    out: List[int] = []
    step = UNKNOWN
    for i, current in enumerate(labels):
        if step != UNKNOWN:
            # the step label's share of y[i .. p] peaks where y[p] holds it,
            # so the end test only needs the step's own positions in the window
            pos = positions[step]
            last = min(i + params.t_e, total - 1)
            first = j = bisect_left(pos, i)
            while j < len(pos) and pos[j] <= last:
                if (j - first + 1) / (pos[j] - i + 1) >= params.sigma_e:
                    break
                j += 1
            else:
                step = UNKNOWN  # closed: the start test runs at this same position
        if step == UNKNOWN and current != UNKNOWN:
            pos = positions[current]
            stop = min(i + params.t_s, total)
            first = bisect_left(pos, i)
            if (bisect_left(pos, stop, first) - first) / (stop - i) >= params.sigma_s:
                step = current
        out.append(step)
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
    """Read what `write_label_sequence` writes; each row's t must be its 1-based row number."""
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
                t, label = int(row[0]), int(row[1])
            except (IndexError, ValueError):
                raise DomainError(f"{path}:{reader.line_num}: expected t,label_index, got {row}") from None
            if t != len(labels) + 1:
                raise DomainError(f"{path}:{reader.line_num}: expected t {len(labels) + 1}, got {t}")
            labels.append(label)
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
