"""In-memory span recorder for the traced run.

A span is one call into a layer: its name, start, end, the span that
caused it and the request it served.  Spans are kept in memory while the
run measures (the run writes them out once it ends), so recording costs
two clock reads and a list append.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One recorded layer call."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        self.request = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as a span named ``name`` of the current request."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.request))

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval as a child of the open span."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, start, end, parent, self.request))


def _covered(start: float, end: float, intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def self_time_by_request(spans: Sequence[Span]) -> dict[int, dict[str, float]]:
    """``{request: {span name: summed self time}}``."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        per = out.setdefault(s.request, {})
        per[s.name] = per.get(s.name, 0.0) + own[s.id]
    return out
