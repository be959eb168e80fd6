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

The correction is one forward scan that yields (start, end, label) segments.
What does not depend on the parameters is built once per sequence (`_Scan`):
the int labels, the end of each run of equal labels, every label's positions
in ascending order (one stable sort), and sort keys from which a searchsorted
counts a label inside any window.  For one (sigma_s, T_s) the start test is
computed for every position at once, as the ascending list of positions where
it passes, so the scan jumps straight to the next start wherever no step is
open.  While a step is open the scan skips:

  * every run of the step's own label: there the window of length one holds
    a share of 1 >= sigma_e (`HlcParams` keeps sigma_e <= 0.5), so the end
    test cannot close the step;
  * the rest of a gap between two of the step label's positions once the end
    test passes at the gap's first position: a later position of the gap sees
    the same step positions in the same passing window, shortened from the
    left, so their share only grows.

So the end test runs once per gap, and visits only the step label's positions
inside its window.  Both tests keep the float expressions of the
position-by-position definition (`count / length >= sigma`), so the labels
equal those of the loop in `tests/oracle_hlc.py`.  `sweep_params` builds the
structures once per sequence, computes the start test once per (sigma_s, T_s)
and scans once per grid point.  Labels are checked once, at entry: anything
but integers >= UNKNOWN raises DomainError naming the argument.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, check, decoding
from .labels import UNKNOWN

DEFAULT_TIMESTEP = 0.5

_MAX_LABEL = int(np.iinfo(np.int64).max)


def _label(value, name: str) -> int:
    try:
        label = int(value)
    except (TypeError, ValueError, OverflowError):
        label = None
    if label is None or label != value or not UNKNOWN <= label <= _MAX_LABEL:
        raise DomainError(f"{name}: labels must be integers >= {UNKNOWN}, got {value}")
    return label


def _label_array(values, name: str) -> np.ndarray:
    """`values` as a 1-D int64 array; anything but integer labels >= UNKNOWN raises DomainError naming `name`."""
    if isinstance(values, LabelSequence):
        values = values.labels
    elif not isinstance(values, np.ndarray):
        try:
            values = list(values)
        except TypeError:
            raise DomainError(f"{name}: expected a sequence of labels, got {type(values).__name__}") from None
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting; the per-value check names the culprit
        arr = None
    if arr is not None and arr.ndim != 1:
        raise DomainError(f"{name}: expected a 1-D sequence of labels, got shape {arr.shape}")
    if arr is None or arr.dtype.kind != "i":
        arr = np.array([_label(v, name) for v in values], dtype=np.int64)
    if arr.size == 0:
        raise DomainError(f"{name}: expected at least one label")
    if arr.min() < UNKNOWN:
        raise DomainError(f"{name}: labels must be integers >= {UNKNOWN}, got {arr.min()}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class LabelSequence:
    """Ordered unified labels sampled every `timestep` seconds."""

    labels: Tuple[int, ...]
    timestep: float = DEFAULT_TIMESTEP

    def __post_init__(self):
        labels = tuple(_label_array(self.labels, "label sequence").tolist())
        check("delta", self.timestep)
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
        for f in fields(self):
            check(f"hlc.{f.name}", getattr(self, f.name))


def _runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For every index, the number of the run of equal values holding it and where that run ends."""
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    run = np.searchsorted(starts, np.arange(len(values)), side="right")
    return run, np.concatenate((starts, [len(values)]))[run]


Segment = Tuple[int, int, int]  # (start, end, label): positions start..end-1 hold label


class _Scan:
    """One sequence's parameter-free structures, built once and scanned per setting."""

    def __init__(self, y: np.ndarray):
        n = self.n = len(y)
        self.labels: List[int] = y.tolist()
        self.run_end: List[int] = _runs(y)[1].tolist()
        # a stable sort lists every label's positions in ascending order, one
        # group per label; position i sits at rank[i] and its group ends at group_end[i]
        order = np.argsort(y, kind="stable")
        group, group_end = _runs(y[order])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        self.positions: List[int] = order.tolist()
        self.rank: List[int] = rank.tolist()
        self.group_end: List[int] = group_end[rank].tolist()
        # keys (group, position) ascend along the sorted list: the number of keys
        # below (group of i, stop), less rank[i], counts y[i]'s label in y[i:stop]
        offset = group * (n + 1)
        self._keys = offset + order
        self._offset = offset[rank]
        self._rank = rank
        self._known = y != UNKNOWN

    def starts(self, sigma_s: float, t_s: int) -> List[int]:
        """The positions where the start test passes, ascending."""
        n = self.n
        i = np.arange(n)
        stop = np.minimum(i + min(t_s, n), n)
        count = np.searchsorted(self._keys, self._offset + stop) - self._rank
        return np.flatnonzero(self._known & (count / (stop - i) >= sigma_s)).tolist()

    def segments(self, starts: List[int], sigma_e: float, t_e: int) -> List[Segment]:
        """The steps the correction opens, in order; positions outside them are UNKNOWN."""
        labels, run_end, positions, n = self.labels, self.run_end, self.positions, self.n
        out: List[Segment] = []
        i = s = 0
        while True:
            s = bisect_left(starts, i, s)
            if s == len(starts):
                return out
            begin = i = starts[s]
            step = labels[i]
            k, k_end = self.rank[i], self.group_end[i]
            while True:
                # y[i] holds the step (positions[k] == i): through its run the
                # window of length one keeps the step open
                end = run_end[i]
                k += end - i
                i = end
                if i == n:
                    break
                # the step label's share of y[i .. p] peaks where y[p] holds it,
                # so the end test only visits the step's own positions in the window
                last = i + t_e
                j = k
                while j < k_end and positions[j] <= last:
                    if (j - k + 1) / (positions[j] - i + 1) >= sigma_e:
                        break
                    j += 1
                else:
                    break  # closed: the start test runs at this same position
                # the same window, shortened from the left, passes at every
                # position up to the step label's next one
                i = positions[k]
            out.append((begin, i, step))

    def corrected(self, starts: List[int], sigma_e: float, t_e: int) -> np.ndarray:
        """The corrected labels: the segments' labels, UNKNOWN elsewhere."""
        out = np.full(self.n, UNKNOWN, dtype=np.int64)
        for begin, end, label in self.segments(starts, sigma_e, t_e):
            out[begin:end] = label
        return out


def correct_labels(y, params: HlcParams = HlcParams()) -> LabelSequence:
    """Rewrite a predicted sequence into steps; off-step positions become UNKNOWN."""
    timestep = y.timestep if isinstance(y, LabelSequence) else DEFAULT_TIMESTEP
    scan = _Scan(_label_array(y, "y"))
    out = scan.corrected(scan.starts(params.sigma_s, params.t_s), params.sigma_e, params.t_e)
    return LabelSequence(tuple(out.tolist()), timestep)


def sweep_params(y, truth, grid: Iterable[HlcParams]) -> List[Tuple[HlcParams, float]]:
    """Correction accuracy against the truth for every parameter combination.

    The accuracy is `labels.accuracy`'s: the share of exact matches, where
    UNKNOWN matches only UNKNOWN.
    """
    y = _label_array(y, "y")
    truth = _label_array(truth, "truth")
    if len(y) != len(truth):
        raise DomainError(f"sequence lengths differ: {len(y)} vs {len(truth)}")
    scan = _Scan(y)
    starts = {}
    rows = []
    for params in grid:
        key = (params.sigma_s, params.t_s)
        if key not in starts:
            starts[key] = scan.starts(*key)
        out = scan.corrected(starts[key], params.sigma_e, params.t_e)
        rows.append((params, float(np.count_nonzero(out == truth)) / scan.n))
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
    labels = _label_array(seq, "labels").tolist()
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "label_index"])
        for t, v in enumerate(labels, start=1):
            writer.writerow([t, v])


def read_label_sequence(path) -> LabelSequence:
    """Read what `write_label_sequence` writes; each row's t must be its 1-based row number."""
    with decoding(path), open(path, "r", newline="", encoding="ascii") as fh:
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
        return LabelSequence(tuple(labels))
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
