"""Spans recorded by the benchmark around its calls into facelight.

A span holds a name, its start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began (its parent, or None) and an
item count.  Spans stay in memory until the run ends; `Tracer.total` and
`Tracer.items` fold them into per-layer figures.  A disabled tracer records
nothing and its spans cost one generator step.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "items")

    def __init__(self, name: str, start: float, parent: Optional[int], items: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.items = items


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, items: int = 0):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), parent, items)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def add_items(self, name: str, items: int) -> None:
        """Record a count with no duration (a size measured after the fact)."""
        if self.enabled:
            now = time.perf_counter()
            rec = Span(name, now, self._open[-1] if self._open else None, items)
            self.spans.append(rec)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def items(self, name: str) -> int:
        return sum(s.items for s in self.spans if s.name == name)
