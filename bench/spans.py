"""In-memory span recording for the traced benchmark run, plus the interval
and percentile arithmetic the per-layer metrics are built from.

A span is one call across a layer boundary: name, start, end, the span that
caused it and the operation (one client call) it belongs to. Spans are only
appended to a list while the run goes on; the per-layer figures are derived
from that list afterwards, so recording costs one clock read on each side of
a call and an append.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float
    end: float
    work: float  # shots, cycles or rows handled by the call, when it has a size

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from the client thread and from pool worker threads.

    The client thread is the one that creates the tracer. A span opened on
    another thread with nothing open on that thread is a child of the
    innermost span open on the client thread: the pool workers of
    `protocol.simulate` run while the client waits inside the simulate span,
    and the thread pool does not carry context across.

    No lock: taking the next id from an itertools.count and appending to a
    list are single operations under the interpreter lock, and each thread
    only touches its own stack.
    """

    def __init__(self):
        self._records: list[tuple] = []
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[tuple[int, int]] = []
        self._local.stack = self._client_stack

    def call(self, name: str, fn: Callable, *args, work: float = 0, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        top = stack[-1:] or self._client_stack[-1:]  # slices never raise, even mid-pop
        span_id = next(self._span_ids)
        if top:
            parent_id, op_id = top[0]
        else:
            parent_id, op_id = None, next(self._op_ids)
        stack.append((span_id, op_id))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._records.append((span_id, parent_id, op_id, name, start, end, work))

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        records, self._records = self._records, []
        return [Span._make(r) for r in records]


def wrap(tracer: Tracer, module, attr: str, name: str,
         work: Callable | None = None) -> Callable[[], None]:
    """Replace module.attr by a traced wrapper; returns the undo function.

    Callers that look the attribute up at call time (a module-level name
    used inside that module, or `module.attr`) go through the wrapper.
    `work(args, kwargs)` sizes each call.
    """
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        size = work(args, kwargs) if work else 0
        return tracer.call(name, original, *args, work=size, **kwargs)

    setattr(module, attr, traced)
    return lambda: setattr(module, attr, original)


def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            kids.setdefault(span.parent_id, []).append(span)
    return kids


def self_time(span: Span, kids: dict[int, list[Span]]) -> float:
    """Duration minus the part of it that child spans cover.

    Children from worker threads overlap each other; the union counts each
    instant once.
    """
    inner = [(c.start, c.end) for c in kids.get(span.span_id, ())]
    return span.duration - covered(inner, span.start, span.end)


def tail_percentile(samples, min_beyond: int = 10,
                    candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> tuple[float, float, int] | None:
    """(pct, value, n) for the highest candidate percentile with at least
    `min_beyond` samples above it, or None when even the median has fewer.

    Uses the nearest-rank definition, so the value is always a sample.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in candidates:
        rank = max(math.ceil(pct / 100.0 * n), 1)
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return None
