"""Span recording for the traced benchmark run.

The benchmark routes every call it makes into an eikograph layer through
``tracer.call(name, fn, ...)``.  With tracing on, each call becomes a span
(name, start, end, parent span, step id) kept in memory and written out when
the run ends; with tracing off the call goes straight through.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Untraced run: calls pass through with no bookkeeping."""

    enabled = False
    step = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; nested calls record their parent."""

    enabled = True

    def __init__(self):
        self.step = None  # None during set-up, else the step index
        self.spans: list[list] = []  # [name, start, end, parent, step]
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.step]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, steps: int) -> dict[str, float]:
        """Self time per span name: a set-up span counts once, a step span
        counts 1/steps, so step-phase figures read as seconds per step.

        Calls run one at a time, so a span's children are disjoint and its
        self time is its duration minus the sum of theirs.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, step) in enumerate(self.spans):
            own = (end - start) - child_time[idx]
            totals[name] += own if step is None else own / steps
        return dict(totals)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "step")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
