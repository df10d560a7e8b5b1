"""In-memory span recorder for the traced benchmark run.

A span is (name, layer, start, end, parent, trace id).  Spans are kept in
a list and reduced when the run ends; nothing is written while timing.
Only single-threaded code is traced, so one parent stack suffices.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


def no_span(name: str, layer: str, trace_id: int | None = None):
    """Drop-in for Tracer.span that records nothing (the untraced pass)."""
    return _NO_SPAN


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> None:
        stack = self.tracer._stack
        self.record[4] = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[2] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records spans; `self_seconds` reduces them to self time per layer."""

    def __init__(self) -> None:
        # each record: [name, layer, start, end, parent index, trace id]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, layer: str, trace_id: int | None = None) -> _Span:
        return _Span(self, [name, layer, 0.0, 0.0, -1, trace_id])

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child_time):
            out[s[1]] += (s[3] - s[2]) - covered
        return dict(out)
