"""Spans recorded around the benchmark's calls into the program's layers.

The benchmark never edits the program to trace it.  A :class:`Tracer`
replaces a public method or module function with a wrapper for the length of
a traced block (:meth:`Tracer.installed`) and restores the original after.
Every wrapped call becomes one :class:`Span`: its name, start, end, the span
that was open on the same thread when it began, and the thread.  Spans stay
in memory and are written out once, when the run ends
(:meth:`Tracer.write_chrome_trace`).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; children that overlap each other are counted
once (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "self_times", "union_length", "totals_by_name"]

_MISSING = object()


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span on the same thread, -1 at top level
    thread: str
    batch: int = -1  # requests fulfilled in one batch share this id

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    covered = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out.append(span.duration - union_length(clipped))
    return out


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time (s)."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total"] += span.duration
        entry["self"] += own
    return dict(totals)


class Tracer:
    """Wraps callables in spans while a traced block is open.

    Register targets with :meth:`wrap`; they are only replaced inside
    ``with tracer.installed():``.  ``count`` optionally maps a call's
    arguments to an amount added to the counter of the same name, so work
    counts are taken at the same boundary as the time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._targets: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time ``owner.attr`` as span ``name`` inside traced blocks."""
        self._targets.append((owner, attr, name, count))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, original, name: str, count):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(Span(name, time.perf_counter(), 0.0, parent, threading.current_thread().name))
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index].end = time.perf_counter()
                if count is not None:
                    with tracer._lock:
                        tracer.counters[name] += count(*args, **kwargs)

        return traced

    # -- traced blocks ------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, count in self._targets:
            own = owner.__dict__.get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self._wrapper(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def span(self, name: str, start: float, end: float, batch: int = -1) -> None:
        """Record a span measured by the caller (e.g. a request's lifetime)."""
        with self._lock:
            self.spans.append(Span(name, start, end, -1, threading.current_thread().name, batch))

    # -- export --------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """All spans as Chrome trace-event JSON (complete ``X`` events, in us)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        threads = {name: tid for tid, name in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": threads[span.thread],
                "args": {"parent": span.parent, "batch": span.batch},
            }
            for span in self.spans
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
            for name, tid in threads.items()
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
