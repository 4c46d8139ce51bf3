"""Spans around the benchmark's calls into dualflow's public functions.

A traced run wraps each call in a span (name, tag, start, end, parent,
operation id) kept in memory and written out when the run ends.  Spans are
recorded from the benchmark's side only; the calls dualflow makes inside
itself are not split out.  The untraced run uses :class:`NullTracer`, whose
``call`` is a plain call.
"""

from __future__ import annotations

import gc
import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    tag: str | None
    start: float
    end: float
    parent: int | None
    op: int | None
    steps: int | None = None


class NullTracer:
    def call(self, name, fn, *args, tag=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans and, between ``collect_gc(True)`` and
    ``collect_gc(False)``, garbage-collector pauses."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_started: float | None = None

    def call(self, name, fn, *args, tag=None, **kwargs):
        index = len(self.spans)
        span = Span(name, tag, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if name in ("walks.circuit_walk", "walks.edge_walk"):
            span.steps = result.length
        return result

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def collect_gc(self, on: bool) -> None:
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)
            self._gc_started = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
