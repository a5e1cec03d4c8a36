"""In-memory spans and counters for the traced benchmark run.

Spans wrap the benchmark's own calls into the library's public
functions; nothing inside the library is instrumented.  A span records
its name, start, end, parent span and item id, so a layer's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._item = ""

    def begin_item(self, item: str) -> None:
        """Spans opened from now on carry this item id."""
        self._item = item

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        item = self._item
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, item)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_times_ms(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time in ms summed, number of spans)."""
        spans = [s for s in self.spans if s is not None]
        covered = [0.0] * len(self.spans)
        for span in spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, tuple[float, int]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            own = (span.end - span.start - covered[index]) * 1000.0
            ms, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (ms + own, calls + 1)
        return totals

    def dump(self, path, pass_index: int) -> None:
        """Append this pass's spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                out.write(json.dumps({
                    "pass": pass_index, "id": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "item": span.item}) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    _NULL = nullcontext()

    def begin_item(self, item: str) -> None:
        pass

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, amount: float = 1) -> None:
        pass
