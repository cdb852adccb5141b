"""In-memory span recorder for the traced benchmark run.

Each span has a name, start and end (perf_counter nanoseconds), the index of
its parent span and the decision it belongs to.  A span's self time is its
duration minus the durations of its direct children.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._child_ns: list[int] = []

    @contextmanager
    def span(self, name: str, decision: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if decision is None and parent is not None:
            decision = self.spans[parent]["decision"]
        idx = len(self.spans)
        rec = {"name": name, "start": 0, "end": 0, "parent": parent, "decision": decision}
        self.spans.append(rec)
        self._stack.append(idx)
        self._child_ns.append(0)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()
            rec["self"] = rec["end"] - rec["start"] - self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += rec["end"] - rec["start"]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec["name"]] += rec["self"] / 1e9
        return dict(out)

    def write(self, f, **extra) -> None:
        """Append the spans to an open file, one JSON object a line."""
        for rec in self.spans:
            f.write(json.dumps({**rec, **extra}) + "\n")


def span_cost_s(repeats: int = 2000) -> float:
    """Measured cost of entering and leaving one nested span, in seconds."""
    tracer = Tracer()
    with tracer.span("calibrate"):
        t0 = time.perf_counter()
        for _ in range(repeats):
            with tracer.span("empty"):
                pass
        elapsed = time.perf_counter() - t0
    return elapsed / repeats
