"""Spans and counts recorded from the benchmark's own code.

A span has a name, a start, an end and the index of the span that was
open when it began (its parent).  Spans stay in memory; the caller writes
them out when the run ends.  ``NullTracer`` has the same interface and
records nothing, so one round can be run with and without tracing.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter


class Tracer:
    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += int(k)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed duration and number of spans, per name."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return dict(seconds), dict(calls)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }


class NullTracer:
    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, k: int = 1) -> None:
        pass
