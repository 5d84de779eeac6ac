"""In-memory span recorder for the benchmark's traced runs (standard library only).

A span is one call of a wrapped entry point: its name, start and end
(`time.perf_counter_ns`), the index of the span open when it started
(its parent), the pass id it ran in and an item count. Spans stay in a
list in memory and are written out once, when the benchmark ends.

Self time is a span's duration minus the union of its direct children's
intervals, clipped to the span, so time spent in a callee is charged to
the callee only.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "items")

    def __init__(self, name, start, end, parent, pass_id, items=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pass_id = pass_id
        self.items = items

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Recorder:
    """Collects spans; `pass_id` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: list[str] = []
        self.fired: set[str] = set()
        self.pass_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, items=0):
        index = self._open(name, items)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name, items) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.pass_id, items))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, items=None, site=None):
        """Return `fn` recording one span per call.

        `items(args, kwargs, result)` gives the span's item count; `site`
        is added to `fired` on every call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.fired.add(site)
            index = self._open(name, 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if items is not None:
                self.spans[index].items = items(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, entry_points):
        """Replace each (module, attribute, span name, items) with its traced wrapper.

        An attribute that no longer exists is recorded as a trace error.
        Originals are restored on exit.
        """
        originals = []
        try:
            for module, attr, name, items in entry_points:
                site = f"{module.__name__}.{attr}"
                fn = getattr(module, attr, None)
                if fn is None:
                    self.errors.append(f"{site}: entry point not found")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, items, site))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def union_ns(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its direct children, clipped to it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append(s.duration - union_ns([c for c in clipped if c[0] < c[1]]))
    return out
