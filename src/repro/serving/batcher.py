"""Dynamic micro-batching: coalesce single-row requests into model forwards.

Online traffic arrives one row at a time, but the numpy substrate amortises
per-call overhead across rows, so the engine queues incoming requests and
flushes them as one forward under a classic dual-trigger policy: a batch goes
out when it reaches ``max_batch_size`` rows **or** when its oldest request
has waited ``max_wait_ms`` — whichever comes first.  ``num_workers`` threads
flush concurrently.

An LRU cache in front of the queue short-circuits repeated feature rows:
the key is a SHA-256 over the row's exact byte content (categorical ids,
sequence ids, and mask — everything the logit depends on), so a cache hit is
guaranteed to return the same logit the forward would have produced.  Thanks
to the deterministic blocked forward (:mod:`repro.serving.forward`), cached
and freshly-computed scores are bit-identical, so cache state can never
change a response.

Every request resolves exactly once: with the logit, or with the error that
prevented it (engine closed without drain, model failure).  ``close`` with
``drain=True`` — the SIGTERM path — stops accepting new work, flushes the
queue, and joins the workers; nothing in flight is dropped.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Iterable, Sequence

import numpy as np

from ..data.batching import Batch
from ..obs import (
    BatchFlushedEvent,
    MetricRegistry,
    ObserverList,
    RequestCompletedEvent,
    RequestReceivedEvent,
)
from ..obs.trace import SpanContext, Tracer
from .admission import DeadlineExceededError

__all__ = ["EngineClosedError", "ScoringEngine", "LRUCache", "row_key",
           "row_keys"]


class EngineClosedError(RuntimeError):
    """Raised when submitting to (or aborted by) a closed engine."""


def row_key(categorical: np.ndarray, sequences: np.ndarray,
            mask: np.ndarray) -> bytes:
    """Cache key: digest of the full feature row's canonical bytes.

    Hashing everything the model reads (not just the history) makes a hit
    sound by construction — two requests share a key only if their logits
    are provably identical.
    """
    return row_keys(np.asarray(categorical)[None], np.asarray(sequences)[None],
                    np.asarray(mask)[None])[0]


def row_keys(categorical: np.ndarray, sequences: np.ndarray,
             mask: np.ndarray) -> list[bytes]:
    """:func:`row_key` of every row along the leading axis.

    The arrays are made canonical once for the whole request; each row
    then costs one SHA-256 over views of that memory.
    """
    parts = []
    for array, dtype in ((categorical, np.int64), (sequences, np.int64),
                         (mask, np.bool_)):
        canonical = np.ascontiguousarray(array, dtype=dtype)
        parts.append((str(canonical.shape[1:]).encode(), canonical))
    keys = []
    for r in range(len(categorical)):
        h = hashlib.sha256()
        for shape, canonical in parts:
            h.update(shape)
            h.update(canonical[r])
        keys.append(h.digest())
    return keys


class LRUCache:
    """Thread-safe bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[bytes, float] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: bytes) -> float | None:
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[bytes]) -> list[float | None]:
        """Look up several keys under one lock acquisition."""
        entries = self._entries
        found: list[float | None] = []
        with self._lock:
            for key in keys:
                value = entries.get(key)
                if value is not None:
                    entries.move_to_end(key)
                found.append(value)
        return found

    def put(self, key: bytes, value: float) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _Request:
    __slots__ = ("request_id", "categorical", "sequences", "mask", "key",
                 "future", "enqueued_at", "trace", "trace_parent_id",
                 "deadline")

    def __init__(self, request_id: int, categorical, sequences, mask,
                 key: bytes | None, enqueued_at: float,
                 trace: SpanContext | None = None,
                 trace_parent_id: str | None = None,
                 deadline: float | None = None):
        self.request_id = request_id
        self.categorical = categorical
        self.sequences = sequences
        self.mask = mask
        self.key = key
        # Explicit span-context handoff across the queue boundary: the
        # worker that flushes this request emits its spans retroactively.
        self.trace = trace
        self.trace_parent_id = trace_parent_id
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        # Absolute monotonic deadline; a request still queued past it is
        # rejected by the flushing worker instead of scored.
        self.deadline = deadline


class ScoringEngine:
    """Micro-batched scoring over an :class:`InferenceSession`-like scorer.

    ``session`` needs a single method, ``score_batch(Batch) -> np.ndarray``
    of per-row logits; tests substitute lightweight stubs.  Telemetry flows
    into an optional :class:`MetricRegistry` (latency / batch-size /
    queue-depth histograms, request and cache counters) and the optional
    observers receive the three serving events.
    """

    def __init__(self, session, *, max_batch_size: int = 64,
                 max_wait_ms: float = 2.0, num_workers: int = 1,
                 cache_size: int = 4096,
                 registry: MetricRegistry | None = None,
                 observers: Iterable | None = None,
                 tracer: Tracer | None = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.session = session
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self.cache = LRUCache(cache_size)
        self.registry = registry if registry is not None else MetricRegistry()
        # Optional request tracing; None keeps the hot path at a single
        # attribute load + None check per request.
        self.tracer = tracer
        self._observers = ObserverList.build(list(observers or []))
        self._obs_lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._next_id = 0
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"scoring-worker-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit_row(self, categorical: np.ndarray, sequences: np.ndarray,
                   mask: np.ndarray,
                   trace_parent: SpanContext | None = None,
                   deadline: float | None = None) -> Future:
        """Queue one feature row; the future resolves to its logit (float).

        A one-row :meth:`submit_rows`; see there for ``trace_parent`` and
        ``deadline``.
        """
        return self.submit_rows(
            np.asarray(categorical)[None], np.asarray(sequences)[None],
            np.asarray(mask)[None], trace_parent=trace_parent,
            deadline=deadline)[0]

    def submit_rows(self, categorical: np.ndarray, sequences: np.ndarray,
                    mask: np.ndarray, *,
                    trace_parent: SpanContext | None = None,
                    deadline: float | None = None) -> list[Future]:
        """Queue a request's rows (the arrays' leading axis) as one unit.

        Returns one future per row, in order; each resolves to that row's
        logit (float).  The engine lock is taken once: every row is keyed
        and cache-checked, the misses are enqueued together, and the
        workers are notified once — either every row is accepted or, on a
        closed engine, none is.

        ``trace_parent`` links each row's spans under an ingress span (the
        HTTP handler's); with a tracer but no parent, each row starts its
        own trace (head-sampled).

        ``deadline`` is an absolute ``time.monotonic()`` instant; a row
        still queued when it passes fails with
        :class:`DeadlineExceededError` instead of being scored — expired
        work is shed, not computed.  Callers may also ``cancel()`` the
        future of a row they stopped waiting for; cancelled rows are
        dropped from the batch before the forward runs.
        """
        n = len(categorical)
        keys = (row_keys(categorical, sequences, mask)
                if self.cache.capacity else [None] * n)
        tracer = self.tracer
        traces: list[SpanContext | None] = [None] * n
        parent_id = trace_parent.span_id if trace_parent is not None else None
        if tracer is not None:
            for r in range(n):
                context = tracer.make_context(trace_parent)
                if context.sampled:
                    traces[r] = context
        now = time.monotonic()
        with self._cond:
            if self._closing:
                raise EngineClosedError("scoring engine is shut down")
            first_id = self._next_id + 1
            self._next_id += n
            requests = [
                _Request(first_id + r, categorical[r], sequences[r], mask[r],
                         keys[r], now, trace=traces[r],
                         trace_parent_id=parent_id, deadline=deadline)
                for r in range(n)]
            cached = self.cache.get_many(keys)
            depth = len(self._queue)
            misses = [req for req, hit in zip(requests, cached)
                      if hit is None]
            if misses:
                self._queue.extend(misses)
                # Wake as many workers as the misses can keep busy.
                self._cond.notify(-(-len(misses) // self.max_batch_size))
        hits = n - len(misses)
        self.registry.counter("serve.requests").inc(n)
        if hits:
            self.registry.counter("serve.cache.hits").inc(hits)
        if misses:
            self.registry.counter("serve.cache.misses").inc(len(misses))
        self._set_hit_ratio()
        observed = bool(self._observers)
        done = time.monotonic()
        latency_ms = (done - now) * 1000.0
        for request, value in zip(requests, cached):
            trace = request.trace
            trace_id = trace.trace_id if trace is not None else None
            if value is None:
                depth += 1
            if observed:
                self._emit("on_request_received", RequestReceivedEvent(
                    request_id=request.request_id, cached=value is not None,
                    queue_depth=depth, trace_id=trace_id))
            if value is None:
                continue
            self._record_latency(latency_ms)
            if trace is not None:
                tracer.record_span(
                    "serve.request", trace, now, done,
                    span_id=trace.span_id, parent_id=request.trace_parent_id,
                    attrs={"request_id": request.request_id, "cached": True})
            request.future.set_result(value)
            if observed:
                self._emit("on_request_completed", RequestCompletedEvent(
                    request_id=request.request_id, latency_ms=latency_ms,
                    cached=True, batch_size=0, trace_id=trace_id))
        return [request.future for request in requests]

    def score(self, rows: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
              timeout: float | None = None) -> np.ndarray:
        """Blocking convenience: submit rows, wait, return logits in order.

        ``timeout`` bounds the *whole call*, not each row: one shared
        deadline is computed up front and every future gets only the time
        remaining, so an N-row request can never wait N × timeout.  On
        timeout the still-pending futures are abandoned (cancelled or
        failed) so no worker scores rows this caller stopped waiting for.
        """
        if not rows:
            return np.zeros(0, dtype=np.float64)
        futures = self.submit_rows(*(np.stack(column)
                                     for column in zip(*rows)))
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        try:
            results = []
            for f in futures:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                results.append(f.result(timeout=remaining))
        except BaseException:
            self.abandon(futures)
            raise
        return np.array(results, dtype=np.float64)

    @staticmethod
    def abandon(futures: Iterable[Future]) -> None:
        """Release futures the caller no longer awaits.

        Pending ones are cancelled (the flushing worker drops them before
        the forward, so abandoned rows cost no model time); already-running
        or resolved ones are left to finish — their results are simply
        discarded.  Exceptions held by resolved futures are consumed so
        they are not logged as never-retrieved.
        """
        for f in futures:
            if not f.cancel() and f.done():
                f.exception()  # mark retrieved; discard

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._flush(batch)

    def _collect(self) -> list[_Request] | None:
        """Block until a batch is due under the size/wait policy."""
        with self._cond:
            while not self._queue:
                if self._closing:
                    return None
                self._cond.wait()
            first = self._queue.popleft()
            batch = [first]
            deadline = first.enqueued_at + self.max_wait_s
            while len(batch) < self.max_batch_size:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - time.monotonic()
                # Draining: ship what we have, don't wait out the window.
                if self._closing or remaining <= 0:
                    break
                self._cond.wait(remaining)
            return batch

    def _flush(self, batch: list[_Request]) -> None:
        flush_start = time.monotonic()
        wait_ms = (flush_start - batch[0].enqueued_at) * 1000.0
        with self._cond:
            depth = len(self._queue)
        tracer = self.tracer
        batch = self._admit_batch(batch, flush_start)
        if not batch:
            return
        oldest_trace = batch[0].trace
        try:
            rows = Batch(
                categorical=np.stack([r.categorical for r in batch]),
                sequences=np.stack([r.sequences for r in batch]),
                mask=np.stack([r.mask for r in batch]),
                labels=np.zeros(len(batch), dtype=np.float64),
            )
            forward_start = time.monotonic()
            logits = np.asarray(self.session.score_batch(rows),
                                dtype=np.float64)
            forward_end = time.monotonic()
            forward_ms = (forward_end - forward_start) * 1000.0
            if logits.shape != (len(batch),):
                raise RuntimeError(
                    f"scorer returned shape {logits.shape} for a batch of "
                    f"{len(batch)} rows")
        except BaseException as exc:  # resolve every request, then continue
            failed_at = time.monotonic()
            for request in batch:
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(exc)
                if request.trace is not None:
                    tracer.record_span(
                        "serve.request", request.trace, request.enqueued_at,
                        failed_at, span_id=request.trace.span_id,
                        parent_id=request.trace_parent_id,
                        attrs={"request_id": request.request_id,
                               "error": repr(exc)})
                self._emit("on_request_completed", RequestCompletedEvent(
                    request_id=request.request_id,
                    latency_ms=(failed_at - request.enqueued_at) * 1000.0,
                    cached=False, batch_size=len(batch), error=repr(exc),
                    trace_id=(request.trace.trace_id
                              if request.trace is not None else None)))
            self.registry.counter("serve.errors").inc(len(batch))
            return
        if oldest_trace is not None:
            # Micro-batch assembly is shared work; attribute it once, to
            # the trace of the request that triggered the flush.
            tracer.record_span("serve.batch_assemble", oldest_trace,
                               flush_start, forward_start,
                               attrs={"batch_size": len(batch)})
        self.registry.counter("serve.batches").inc()
        self.registry.histogram("serve.batch_size").record(len(batch))
        self.registry.histogram("serve.queue_depth").record(depth)
        self.registry.histogram("serve.forward_ms").record(forward_ms)
        self._emit("on_batch_flushed", BatchFlushedEvent(
            batch_size=len(batch), queue_depth=depth, wait_ms=wait_ms,
            forward_ms=forward_ms,
            trace_id=(oldest_trace.trace_id if oldest_trace is not None
                      else None)))
        done = time.monotonic()
        queue_wait_hist = self.registry.fixed_histogram(
            "serve.queue_wait_seconds")
        for request, logit in zip(batch, logits):
            value = float(logit)
            if request.key is not None:
                self.cache.put(request.key, value)
            latency_ms = (done - request.enqueued_at) * 1000.0
            queue_wait_hist.record(flush_start - request.enqueued_at)
            self._record_latency(latency_ms)
            if request.trace is not None:
                trace = request.trace
                tracer.record_span("serve.queue_wait", trace,
                                   request.enqueued_at, flush_start)
                tracer.record_span("serve.forward", trace, forward_start,
                                   forward_end,
                                   attrs={"batch_size": len(batch)})
                tracer.record_span(
                    "serve.request", trace, request.enqueued_at, done,
                    span_id=trace.span_id,
                    parent_id=request.trace_parent_id,
                    attrs={"request_id": request.request_id,
                           "batch_size": len(batch)})
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(value)
            self._emit("on_request_completed", RequestCompletedEvent(
                request_id=request.request_id, latency_ms=latency_ms,
                cached=False, batch_size=len(batch),
                trace_id=(request.trace.trace_id
                          if request.trace is not None else None)))

    def _admit_batch(self, batch: list[_Request],
                     now: float) -> list[_Request]:
        """Drop abandoned rows and fail expired ones before the forward.

        Cancelled futures (caller gave up — HTTP timeout, closed
        connection) are silently dropped: scoring them would spend model
        time on answers nobody reads.  Rows whose deadline has passed are
        resolved with :class:`DeadlineExceededError` — rejected, not
        scored — so a backed-up queue sheds its stale tail instead of
        serving every request late.
        """
        live: list[_Request] = []
        tracer = self.tracer
        for request in batch:
            if request.future.cancelled():
                self.registry.counter("serve.abandoned").inc()
                continue
            if request.deadline is not None and now > request.deadline:
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(DeadlineExceededError(
                        f"deadline expired {(now - request.deadline) * 1000.0:.1f}ms "
                        f"before the batch flushed"))
                self.registry.counter("serve.deadline_expired").inc()
                latency_ms = (now - request.enqueued_at) * 1000.0
                if request.trace is not None:
                    tracer.record_span(
                        "serve.request", request.trace, request.enqueued_at,
                        now, span_id=request.trace.span_id,
                        parent_id=request.trace_parent_id,
                        attrs={"request_id": request.request_id,
                               "error": "deadline_exceeded"})
                self._emit("on_request_completed", RequestCompletedEvent(
                    request_id=request.request_id, latency_ms=latency_ms,
                    cached=False, batch_size=0, error="deadline_exceeded",
                    trace_id=(request.trace.trace_id
                              if request.trace is not None else None)))
                continue
            live.append(request)
        return live

    # ------------------------------------------------------------------
    # Lifecycle and stats
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the engine.  Idempotent.

        ``drain=True`` (the graceful path) lets the workers flush everything
        already accepted before they exit; ``drain=False`` fails pending
        requests with :class:`EngineClosedError` immediately.
        """
        with self._cond:
            self._closing = True
            abandoned = []
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for request in abandoned:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    EngineClosedError("engine closed before this request "
                                      "was scored"))
        for worker in self._workers:
            worker.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closing

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """JSON-safe operational snapshot (cache + registry)."""
        snapshot = self.registry.snapshot()
        hits = snapshot.get("serve.cache.hits", {}).get("value", 0.0) or 0.0
        misses = (snapshot.get("serve.cache.misses", {}).get("value", 0.0)
                  or 0.0)
        total = hits + misses
        return {
            "cache": {"size": len(self.cache),
                      "capacity": self.cache.capacity,
                      "hits": int(hits), "misses": int(misses),
                      "hit_rate": (hits / total) if total else None},
            "queue_depth": self.queue_depth(),
            "metrics": snapshot,
        }

    def _record_latency(self, latency_ms: float) -> None:
        """Both latency views: reservoir quantiles (run summaries) and
        fixed Prometheus buckets (fleet aggregation)."""
        self.registry.histogram("serve.latency_ms").record(latency_ms)
        self.registry.fixed_histogram("serve.latency_seconds").record(
            latency_ms / 1000.0)

    def _set_hit_ratio(self) -> None:
        hits = self.registry.counter("serve.cache.hits").value
        misses = self.registry.counter("serve.cache.misses").value
        total = hits + misses
        if total:
            self.registry.gauge("serve.cache_hit_ratio").set(hits / total)

    def _emit(self, hook: str, event) -> None:
        if not self._observers:
            return
        with self._obs_lock:
            getattr(self._observers, hook)(event)

    def __enter__(self) -> "ScoringEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)
