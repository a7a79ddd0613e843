"""In-memory spans, exclusive-time rollup, and the statistics rules.

A span is ``(span_id, parent_id, name, start, end, thread, attrs)`` on the
``time.monotonic`` clock.  Spans of one request or training step form a tree
under one root span; the spans written out carry the root's id as their
``trace_id``.

Exclusive (self) time: a span's duration minus the part of its interval that
its children cover.  Where children overlap each other (rows of one request
scored concurrently, a queue wait that starts before the submit call
returns), each instant goes to the deepest span active at that instant, and
among equally deep spans to the one that started last.  Every instant of a
root span is then attributed to exactly one span, so the exclusive times of
one tree sum to the root's duration.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

__all__ = ["Span", "SpanLog", "exclusive_times", "rollup", "percentile",
           "supports_percentile", "due_time_latencies", "Tally"]


class Span:
    __slots__ = ("span_id", "parent_id", "name", "start", "end", "thread",
                 "attrs")

    def __init__(self, span_id: str, parent_id: str | None, name: str,
                 start: float, end: float | None = None,
                 attrs: dict | None = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.thread = threading.current_thread().name
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Thread-safe span sink with per-thread nesting.

    ``begin``/``end`` nest on the calling thread's stack; ``record`` adds a
    finished span with explicit timestamps (for work that started on
    another thread or whose start was only known afterwards).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_id(self) -> str:
        with self._lock:
            return f"b{next(self._ids)}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def root(self) -> Span | None:
        """Outermost open span on the calling thread."""
        stack = self._stack()
        return stack[0] if stack else None

    def begin(self, name: str, parent: Span | None = None,
              attrs: dict | None = None) -> Span:
        parent = parent if parent is not None else self.current()
        span = Span(self.new_id(),
                    parent.span_id if parent is not None else None,
                    name, time.monotonic(), attrs=attrs)
        self._stack().append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end = time.monotonic()
        self._pop(span)
        with self._lock:
            self.spans.append(span)
        return span

    def discard(self, span: Span) -> None:
        """Close ``span`` without recording it."""
        self._pop(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        span = self.begin(name, attrs=attrs)
        try:
            yield span
        finally:
            self.end(span)

    def record(self, name: str, start: float, end: float,
               parent_id: str | None, span_id: str | None = None,
               attrs: dict | None = None) -> Span:
        span = Span(span_id or self.new_id(), parent_id, name, start, end,
                    attrs=attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def write_jsonl(self, path) -> int:
        """Write every span, tagged with its tree's root id; returns count."""
        by_id = {s.span_id: s for s in self.spans}
        roots: dict[str, str] = {}

        def root_of(span: Span) -> str:
            seen = []
            node = span
            while node.parent_id is not None and node.parent_id in by_id:
                if node.span_id in roots:
                    break
                seen.append(node.span_id)
                node = by_id[node.parent_id]
            root = roots.get(node.span_id, node.span_id)
            for sid in seen:
                roots[sid] = root
            return root

        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "trace_id": root_of(s), "span_id": s.span_id,
                    "parent_id": s.parent_id, "name": s.name,
                    "start": s.start, "end": s.end, "thread": s.thread,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")
        return len(self.spans)


def _children(spans) -> tuple[dict, list]:
    ids = {s.span_id for s in spans}
    children: dict[str, list] = defaultdict(list)
    roots = []
    for s in spans:
        if s.parent_id is None or s.parent_id not in ids:
            roots.append(s)
        else:
            children[s.parent_id].append(s)
    return children, roots


def exclusive_times(root: Span, children: dict) -> dict[str, float]:
    """Seconds of ``root``'s interval attributed to each span name.

    Descendants are clipped to the root's interval.  The values sum to the
    root's duration.
    """
    lo, hi = root.start, root.end
    tree = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        start, end = max(node.start, lo), min(node.end, hi)
        if end > start or node is root:
            tree.append((node, depth, start, end))
        for child in children.get(node.span_id, ()):
            stack.append((child, depth + 1))
    tree.sort(key=lambda t: t[2])
    cuts = sorted({t for _, _, s, e in tree for t in (s, e)})
    out: dict[str, float] = defaultdict(float)
    active: list = []      # heap of (-depth, -start, index, end, name)
    nxt = 0
    for a, b in zip(cuts, cuts[1:]):
        while nxt < len(tree) and tree[nxt][2] <= a:
            node, depth, s, e = tree[nxt]
            heapq.heappush(active, (-depth, -s, nxt, e, node.name))
            nxt += 1
        while active and active[0][3] <= a:
            heapq.heappop(active)
        if active:
            out[active[0][4]] += b - a
    return dict(out)


def rollup(spans, root_name: str) -> tuple[dict[str, float], int]:
    """Mean exclusive seconds per span name over every root ``root_name``.

    Returns ``(means, roots)``; ``means`` sums to the mean root duration.
    """
    children, roots = _children(spans)
    totals: dict[str, float] = defaultdict(float)
    count = 0
    for root in roots:
        if root.name != root_name:
            continue
        count += 1
        for name, seconds in exclusive_times(root, children).items():
            totals[name] += seconds
    return ({k: v / count for k, v in totals.items()} if count else {},
            count)


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
#: Samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def supports_percentile(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least ten beyond percentile ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9


def percentile(values, q: float) -> float:
    """Percentile ``q`` of ``values``; raises if the sample is too small."""
    values = np.asarray(values, dtype=np.float64)
    if not supports_percentile(len(values), q):
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"only {len(values)} samples")
    return float(np.percentile(values, q))


def due_time_latencies(due, done) -> np.ndarray:
    """Open-loop latency of each request: completion minus *due* time.

    Measuring from the due time, not the send time, charges a generator or
    server stall to every request it delayed.  Requests that never
    completed (``done`` is NaN) are excluded; count them as failures.
    """
    due = np.asarray(due, dtype=np.float64)
    done = np.asarray(done, dtype=np.float64)
    ok = np.isfinite(done)
    return (done[ok] - due[ok]) * 1000.0


class Tally:
    """Operations attempted and failed, by failure kind."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = defaultdict(int)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] += count

    @property
    def failed(self) -> int:
        return int(sum(self.failures.values()))

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else math.nan
