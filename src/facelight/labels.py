"""Unified labels over a category/application hierarchy.

An application is addressed either by its (category j, app k) pair or by the
unified index sum(K_i, i < j) + k over all K applications.  UNKNOWN (-1)
marks timesteps belonging to no recognized application and only ever equals
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .errors import DomainError

UNKNOWN = -1


@dataclass(frozen=True)
class LabelLayout:
    """Per-category application counts plus optional display names."""

    counts: Tuple[int, ...]
    category_names: Optional[Tuple[str, ...]] = None
    app_names: Optional[Tuple[Tuple[str, ...], ...]] = None
    offsets: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1 or any(c < 1 for c in counts):
            raise DomainError(f"need >= 1 categories with >= 1 application each, got {counts}")
        if self.category_names is not None and len(self.category_names) != len(counts):
            raise DomainError("category_names length must match counts")
        if self.app_names is not None:
            if tuple(len(a) for a in self.app_names) != counts:
                raise DomainError("app_names shape must match counts")
            object.__setattr__(self, "app_names", tuple(tuple(a) for a in self.app_names))
        if self.category_names is not None:
            object.__setattr__(self, "category_names", tuple(self.category_names))
        object.__setattr__(self, "counts", counts)
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)
        object.__setattr__(self, "offsets", tuple(offsets))

    @property
    def num_categories(self) -> int:
        return len(self.counts)

    @property
    def num_labels(self) -> int:
        return sum(self.counts)

    def category_name(self, j: int) -> str:
        if self.category_names is not None:
            return self.category_names[j]
        return f"category-{j}"


def unify_label(j: int, k: int, layout: LabelLayout) -> int:
    """(category, app) -> unified index; bijective over valid pairs."""
    if not 0 <= j < layout.num_categories:
        raise DomainError(f"category index {j} out of range [0, {layout.num_categories})")
    if not 0 <= k < layout.counts[j]:
        raise DomainError(f"app index {k} out of range [0, {layout.counts[j]}) for category {j}")
    return layout.offsets[j] + k


def split_label(index: int, layout: LabelLayout) -> Tuple[int, int]:
    """Unified index -> (category, app) pair."""
    if not 0 <= index < layout.num_labels:
        raise DomainError(f"unified label {index} out of range [0, {layout.num_labels})")
    for j in range(layout.num_categories - 1, -1, -1):
        if index >= layout.offsets[j]:
            return j, index - layout.offsets[j]
    raise AssertionError("unreachable")


def accuracy(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of exact unified-label matches; UNKNOWN matches only UNKNOWN."""
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth):
        raise DomainError(f"sequence lengths differ: {len(pred)} vs {len(truth)}")
    if not pred:
        raise DomainError("sequences must be non-empty")
    return float(sum(bool(p == t) for p, t in zip(pred, truth))) / len(pred)
