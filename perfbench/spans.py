"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into the package;
nothing inside the package is instrumented. Each span is
``[trace_id, span_id, parent_id, name, start, end]`` with times from
``time.perf_counter``; every span of one operation shares its trace id.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1][1] if tr.stack else None
        if parent is None:
            tr.trace_id += 1
        self.record = [tr.trace_id, len(tr.spans), parent, self.name, perf_counter(), None]
        tr.spans.append(self.record)
        tr.stack.append(self.record)
        return self

    def __exit__(self, *exc) -> None:
        self.record[5] = perf_counter()
        self.tracer.stack.pop()


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` costs one call and
    returns a shared no-op context. Counters are always kept."""

    def __init__(self) -> None:
        self.enabled = False
        self.root = "op"  # name given to each operation's root span
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.trace_id = 0
        self.counts: Counter = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (self time) and p50_us (median
        duration). Self time is a span's duration minus its direct children's;
        spans nest strictly on one thread, so children never overlap."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        durations: defaultdict[str, list[float]] = defaultdict(list)
        busy: defaultdict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            durations[name].append(end - start)
            busy[name] += end - start - child_time[span_id]
        return {
            name: {
                "calls": len(values),
                "busy_s": busy[name],
                "p50_us": statistics.median(values) * 1e6,
            }
            for name, values in durations.items()
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
