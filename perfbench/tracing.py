"""In-memory spans around the benchmark's calls into qecentropy.

A span records its name, start, end, parent span and request id.  Spans and
counters are kept in memory and written out once, when the run ends.  A
disabled tracer records nothing, so the untimed and timed code paths are the
same apart from the recording itself.
"""

from __future__ import annotations

import collections
import json
import time


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.request_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self.request_id = -1

    def begin_request(self) -> None:
        self.request_id += 1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.counters[name] += value

    def busy(self) -> dict[str, tuple[float, int]]:
        """Summed duration and count of the spans of each name."""
        out: dict[str, list] = collections.defaultdict(lambda: [0.0, 0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += end - start
            out[name][1] += 1
        return {name: (total, calls) for name, (total, calls) in out.items()}

    def write(self, path, conditions: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"conditions": conditions, "counters": dict(self.counters)}) + "\n")
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")
