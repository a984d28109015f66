"""In-memory spans recorded around calls into the program's public functions.

A span has a name, a start, an end, the span that caused it and the id of
the trace (one CLI call or replayed call) it belongs to. Spans stay in memory
until the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and counters; the clock is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._clock = clock
        self._stack: list[int] = []
        self.trace_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), float("nan"), parent, self.trace_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def roots_total(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def self_time(self, name: str) -> float:
        """Summed self time of every span with this name.

        A span's self time is its duration minus the part of its interval
        that its direct children cover; overlapping children count once and
        a child's time outside its parent does not count.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for index, s in enumerate(self.spans):
            if s.name == name:
                total += s.duration - _covered(s, children.get(index, []))
        return total

    def to_jsonable(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
