"""Model router: one serving front door, a fleet of model deployments.

The router owns up to three live deployments, each a (version, session,
engine) triple built by an injected ``engine_factory``:

``primary``
    Scores the critical path.  :meth:`deploy_primary` hot-swaps it with
    zero dropped requests: the replacement engine is built and warmed
    first, the pointer switch happens under the submit lock (so no request
    can observe a half-swapped router), and only then is the old engine
    drained — every request it had already accepted still resolves.
``shadow``
    Receives a fire-and-forget copy of every primary-routed request.
    Shadow results are discarded and shadow failures are swallowed (and
    counted) — a broken challenger can never hurt production traffic.
``challenger``
    Percentage A/B: a deterministic hash of the feature row sends
    ``challenger_fraction`` of requests to the challenger *instead of*
    production.  Hash-based routing means a given row always sees the same
    model, so repeated requests stay cache-coherent and comparable.

Per-model traffic is counted as ``serve.model.<version>.requests`` /
``.errors`` in the shared metric registry, alongside role counters
(``serve.shadow.requests``, ``serve.ab.challenger_requests``), so operators
can watch a challenger's error rate before promoting it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

import numpy as np

from ..obs import MetricRegistry
from ..obs.trace import SpanContext
from .batcher import ScoringEngine, row_keys

__all__ = ["ModelRouter", "Deployment"]


class Deployment:
    """One live model: a version label, its session, and its engine."""

    __slots__ = ("version", "session", "engine")

    def __init__(self, version: str, session, engine: ScoringEngine):
        self.version = version
        self.session = session
        self.engine = engine


def _route_buckets(categorical: np.ndarray, sequences: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Deterministic bucket in [0, 10000) per row, from the full feature
    row."""
    return np.array([int.from_bytes(key[:8], "big") % 10_000
                     for key in row_keys(categorical, sequences, mask)])


class ModelRouter:
    """Route score requests across primary / shadow / challenger engines."""

    def __init__(self, engine_factory: Callable[[Any], ScoringEngine], *,
                 metrics: MetricRegistry | None = None):
        self._factory = engine_factory
        self.metrics = metrics if metrics is not None else MetricRegistry()
        # Guards the deployment pointers AND spans each submit_rows call,
        # so a swap can never close an engine between a request picking it
        # and enqueueing into it (the zero-drop invariant), and every row
        # of one request sees the same primary.
        self._lock = threading.Lock()
        self._primary: Deployment | None = None
        self._shadow: Deployment | None = None
        self._challenger: Deployment | None = None
        self._fraction = 0.0
        self._swaps = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Deployment management
    # ------------------------------------------------------------------
    def deploy_primary(self, session, version: str) -> dict[str, Any]:
        """Install (or hot-swap) the production model; returns swap info.

        The new engine exists and accepts work *before* the old one stops;
        requests admitted to the old engine drain to completion, requests
        arriving during the swap land on whichever engine the pointer
        names — both of which score.  Nothing is dropped.
        """
        start = time.monotonic()
        engine = self._factory(session)
        with self._lock:
            if self._closed:
                engine.close(drain=False)
                raise RuntimeError("router is closed")
            old = self._primary
            self._primary = Deployment(version, session, engine)
            self._swaps += 1
        drained = 0
        if old is not None:
            drained = old.engine.queue_depth()
            old.engine.close(drain=True)
        swap_ms = (time.monotonic() - start) * 1000.0
        self.metrics.counter("serve.model.swaps").inc()
        return {"old_version": old.version if old is not None else None,
                "new_version": version, "swap_ms": swap_ms,
                "drained_queue_depth": drained}

    def set_shadow(self, session, version: str | None) -> None:
        """Attach (or detach, with ``version=None``) the shadow model."""
        new = None
        if version is not None:
            new = Deployment(version, session, self._factory(session))
        with self._lock:
            old, self._shadow = self._shadow, new
        if old is not None:
            old.engine.close(drain=True)

    def set_challenger(self, session, version: str | None,
                       fraction: float = 0.0) -> None:
        """Attach (or detach) the A/B challenger taking ``fraction``."""
        new = None
        if version is not None:
            if not 0.0 < fraction <= 1.0:
                raise ValueError("fraction must be in (0, 1]")
            new = Deployment(version, session, self._factory(session))
        else:
            fraction = 0.0
        with self._lock:
            old, self._challenger = self._challenger, new
            self._fraction = fraction
        if old is not None:
            old.engine.close(drain=True)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    @property
    def primary(self) -> Deployment:
        with self._lock:
            if self._primary is None:
                raise RuntimeError("router has no primary deployment")
            return self._primary

    @property
    def primary_session(self):
        return self.primary.session

    @property
    def primary_engine(self) -> ScoringEngine:
        return self.primary.engine

    def submit(self, categorical: np.ndarray, sequences: np.ndarray,
               mask: np.ndarray, *,
               trace_parent: SpanContext | None = None,
               deadline: float | None = None) -> tuple[Future, str]:
        """Route one row; returns (future, version-that-scores-it).

        A one-row :meth:`submit_rows`.
        """
        futures, versions = self.submit_rows(
            np.asarray(categorical)[None], np.asarray(sequences)[None],
            np.asarray(mask)[None], trace_parent=trace_parent,
            deadline=deadline)
        return futures[0], versions[0]

    def submit_rows(self, categorical: np.ndarray, sequences: np.ndarray,
                    mask: np.ndarray, *,
                    trace_parent: SpanContext | None = None,
                    deadline: float | None = None
                    ) -> tuple[list[Future], list[str]]:
        """Route a request's rows (the arrays' leading axis) as one unit.

        Returns one future per row and the version that scores each row.
        The hash split is evaluated per row, the rows bound for each
        target are enqueued together, and the shadow copy (if any) is
        dispatched fire-and-forget — all while the router lock is held, so
        a concurrent hot-swap can neither close a chosen engine under the
        request nor split it across the old and new primaries.
        """
        n = len(categorical)
        futures: list[Future | None] = [None] * n
        versions: list[str | None] = [None] * n
        with self._lock:
            if self._primary is None:
                raise RuntimeError("router has no primary deployment")
            groups = [(self._primary, range(n))]
            if self._challenger is not None:
                to_challenger = _route_buckets(categorical, sequences, mask) \
                    < int(self._fraction * 10_000)
                groups = [
                    (self._primary, np.flatnonzero(~to_challenger).tolist()),
                    (self._challenger, np.flatnonzero(to_challenger).tolist())]
                self.metrics.counter("serve.ab.challenger_requests").inc(
                    len(groups[1][1]))
            shadow = self._shadow
            try:
                for target, rows in groups:
                    if len(rows) == 0:
                        continue
                    whole = len(rows) == n
                    placed = target.engine.submit_rows(
                        categorical if whole else categorical[rows],
                        sequences if whole else sequences[rows],
                        mask if whole else mask[rows],
                        trace_parent=trace_parent, deadline=deadline)
                    for r, future in zip(rows, placed):
                        futures[r], versions[r] = future, target.version
            except BaseException:
                ScoringEngine.abandon(f for f in futures if f is not None)
                raise
            if shadow is not None:
                self._submit_shadow(shadow, categorical, sequences, mask)
        for target, rows in groups:
            if len(rows):
                self.metrics.counter(
                    f"serve.model.{target.version}.requests").inc(len(rows))
        for future, version in zip(futures, versions):
            future.add_done_callback(
                lambda f, v=version: self._record_outcome(f, v))
        return futures, versions

    def _submit_shadow(self, shadow: Deployment, categorical, sequences,
                       mask) -> None:
        """Fire-and-forget shadow copy — never on the critical path."""
        n = len(categorical)
        self.metrics.counter("serve.shadow.requests").inc(n)
        self.metrics.counter(
            f"serve.model.{shadow.version}.requests").inc(n)
        try:
            futures = shadow.engine.submit_rows(categorical, sequences, mask)
        except Exception:
            self.metrics.counter("serve.shadow.errors").inc(n)
            return
        version = shadow.version

        def consume(f: Future, v: str = version) -> None:
            exc = None if f.cancelled() else f.exception()
            if f.cancelled() or exc is not None:
                self.metrics.counter("serve.shadow.errors").inc()
                self.metrics.counter(f"serve.model.{v}.errors").inc()

        for future in futures:
            future.add_done_callback(consume)

    def _record_outcome(self, future: Future, version: str) -> None:
        if future.cancelled() or future.exception() is not None:
            self.metrics.counter(f"serve.model.{version}.errors").inc()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-safe fleet state for ``/healthz``."""
        with self._lock:
            return {
                "primary": (self._primary.version
                            if self._primary is not None else None),
                "shadow": (self._shadow.version
                           if self._shadow is not None else None),
                "challenger": (self._challenger.version
                               if self._challenger is not None else None),
                "challenger_fraction": self._fraction,
                "swaps": self._swaps,
            }

    def deployments(self) -> list[Deployment]:
        with self._lock:
            return [d for d in (self._primary, self._shadow,
                                self._challenger) if d is not None]

    def close(self, drain: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            deployments = [d for d in (self._primary, self._shadow,
                                       self._challenger) if d is not None]
        for deployment in deployments:
            deployment.engine.close(drain=drain)
