"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent index, unit id).  Spans stay in memory
while the run measures and are written out once at the end, so the cost of
tracing is one list append and two clock reads per span.  The module of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, unit]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._unit: int | None = None

    @contextmanager
    def unit(self, unit_id: int):
        self._unit = unit_id
        try:
            with self.span("unit"):
                yield
        finally:
            self._unit = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._unit])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def total_s(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_s_by_module(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, summed per module."""
        child_s = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child_s[index]
        return dict(out)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, unit in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "unit": unit}
                ) + "\n")
