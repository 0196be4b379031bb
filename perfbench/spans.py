"""In-memory spans and counters for the traced benchmark run.

A span records a name, start, end, parent span and op id.  Counters are
added at the same boundaries, so ratios are taken where the work happens.
Nothing is written until the run ends.  Spans named ``trace.*`` hold work
done only for the trace (counting, memory peaks), which is taken out of
the op's time when tracing overhead is measured.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.op = None
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn):
        with self.span(name):
            return fn()

    def peak(self, name: str, fn) -> None:
        """Record the tracemalloc peak of one extra, untimed run of ``fn``
        as the peak of layer ``name``; only the first call per name runs."""
        if name in self.peaks:
            return
        with self.span("trace.peak"):
            tracemalloc.start()
            try:
                fn()
                self.peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def add(self, name: str, value: float) -> None:
        self.counts[self.op, name] += value

    def total(self, name: str) -> float:
        return sum(v for (_, key), v in self.counts.items() if key == name)

    def self_times(self, op) -> dict[str, float]:
        """Per span name, the summed self time in ``op``: each span's
        duration minus the part its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["op"] == op and s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for index, s in enumerate(self.spans):
            if s["op"] == op:
                out[s["name"]] += s["end"] - s["start"] - child_time[index]
        return out

    def duration(self, op, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["op"] == op and s["name"] == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
