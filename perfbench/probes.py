"""Traced-run probes: spans around calls into the program's public functions.

Nothing here edits the program.  Each probe replaces a function or method
attribute with a wrapper that records a span and calls the original, and
:class:`Probes` puts every original back on close.  The program's own
telemetry joins the same span log through :class:`BenchTracer`, a
:class:`repro.obs.trace.Tracer` handed to the program's public ``tracer=``
arguments and installed with ``use_tracer``.
"""

from __future__ import annotations

import functools
import http.server
import json
import os
from contextlib import contextmanager
from pathlib import Path

from repro.obs.trace import SpanContext, Tracer

from .spans import SpanLog

__all__ = ["Probes", "BenchTracer"]


class BenchTracer(Tracer):
    """Routes the program's spans into a :class:`SpanLog`.

    * ``span`` scopes (the streaming loop's ``stream.*`` spans) nest on the
      log's per-thread stack, so probe spans opened inside them become
      their children;
    * a context created with no parent (the HTTP handler's ingress) becomes
      a child of the calling thread's open span;
    * timestamps stay on the monotonic clock the log uses.
    """

    def __init__(self, log: SpanLog):
        super().__init__(sink=None)
        self.log = log
        self._links: dict[str, str] = {}

    def to_wall(self, monotonic_ts: float) -> float:
        return monotonic_ts

    def make_context(self, parent: SpanContext | None = None) -> SpanContext:
        ambient = self.log.current() if parent is None else None
        if ambient is not None:
            parent = SpanContext(trace_id=ambient.span_id,
                                 span_id=ambient.span_id)
        context = super().make_context(parent)
        if ambient is not None:
            self._links[context.span_id] = ambient.span_id
        return context

    def record_span(self, name, context, start, end, *, parent_id=None,
                    span_id=None, attrs=None) -> None:
        if not context.sampled:
            return
        if span_id is None:
            sid, parent = self.log.new_id(), context.span_id
        else:
            sid = span_id
            parent = parent_id if parent_id is not None \
                else self._links.get(span_id)
        self.log.record(name, start, end, parent, span_id=sid, attrs=attrs)

    @contextmanager
    def span(self, name, parent=None, attrs=None):
        with self.log.span(name, attrs=attrs) as s:
            yield SpanContext(trace_id=s.span_id, span_id=s.span_id)


class _JsonProxy:
    """Stand-in for the ``json`` module inside the HTTP server module."""

    def __init__(self, log: SpanLog):
        self._log = log

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, *args, **kwargs):
        with self._log.span("serving.decode"):
            payload = json.loads(*args, **kwargs)
        root = self._log.root()
        if root is not None and isinstance(payload, dict) \
                and "bench_id" in payload:
            root.attrs = {"bench_id": payload["bench_id"]}
        return payload

    def dumps(self, *args, **kwargs):
        with self._log.span("serving.encode"):
            return json.dumps(*args, **kwargs)


class Probes:
    """Installs span probes; ``close`` restores every original."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: list[tuple[object, str, object]] = []
        self.nodes = 0

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def replace(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        new = make(func)
        if isinstance(raw, staticmethod):
            new = staticmethod(new)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def time(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call."""
        log = self.log

        def make(func):
            @functools.wraps(func)
            def timed(*args, **kwargs):
                span = log.begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    log.end(span)
            return timed
        self.replace(owner, attr, make)

    def steps(self, owner, attr: str, name: str, child: str | None = None,
              when=lambda self_: True) -> None:
        """Make each item a generator method yields one root span.

        The span opens when the consumer asks for the item (``child``
        covers producing it) and closes when it asks for the next one, so
        it covers everything the consumer does with the item.
        """
        log = self.log
        probes = self

        def make(func):
            @functools.wraps(func)
            def iterate(self_, *args, **kwargs):
                inner = func(self_, *args, **kwargs)
                if not when(self_):
                    yield from inner
                    return
                span = None
                try:
                    while True:
                        probes.nodes = 0
                        span = log.begin(name, parent=_ROOT)
                        part = log.begin(child) if child else None
                        try:
                            item = next(inner)
                        except StopIteration:
                            if part is not None:
                                log.discard(part)
                            log.discard(span)
                            span = None
                            return
                        if part is not None:
                            log.end(part)
                        yield item
                        span.attrs = {"nodes": probes.nodes}
                        log.end(span)
                        span = None
                finally:
                    if span is not None:
                        log.discard(span)
                    inner.close()
            return iterate
        self.replace(owner, attr, make)

    # ------------------------------------------------------------------
    # Probe sets, one per workload family
    # ------------------------------------------------------------------
    def training(self) -> None:
        from repro.core.extractors import FineGrainedExtractor
        from repro.core.miss import MISSModule
        from repro.core.plugin import MISSEnhancedModel
        import repro.core.miss as miss_mod
        from repro.data.batching import CTRDataset, DataLoader
        from repro.nn import Adam, Tensor
        import repro.training.trainer as trainer_mod

        self.steps(DataLoader, "iter_batches", "training.step",
                   when=lambda loader: loader.shuffle)
        self.time(CTRDataset, "batch", "data.batch")
        self.time(MISSEnhancedModel, "training_loss", "models.forward")
        self.time(MISSEnhancedModel, "ctr_loss", "models.ctr_loss")
        self.time(MISSModule, "ssl_losses", "core.ssl")
        self.time(MISSModule, "interest_maps", "core.mie")
        self.time(FineGrainedExtractor, "forward", "core.mimfe")
        self.time(miss_mod, "sample_interest_pairs", "core.augment")
        self.time(miss_mod, "sample_feature_pairs", "core.augment")
        self.time(MISSModule, "_encode_interest_views", "core.encode")
        self.time(MISSModule, "_encode_feature_views", "core.encode")
        self.time(miss_mod, "info_nce", "core.infonce")
        self.time(trainer_mod, "evaluate", "training.eval")
        self.time(trainer_mod, "clip_grad_norm", "nn.clip")
        self._nn(Tensor, Adam)

    def _nn(self, Tensor, Adam) -> None:
        self.time(Tensor, "backward", "nn.backward")
        self.time(Adam, "step", "nn.optim")
        probes = self

        def make(func):
            @functools.wraps(func)
            def counted(*args, **kwargs):
                out = func(*args, **kwargs)
                if out.requires_grad:
                    probes.nodes += 1
                return out
            return counted
        self.replace(Tensor, "_make", make)

    def serving(self) -> None:
        from repro.serving.session import InferenceSession
        log = self.log

        def make(func):
            @functools.wraps(func)
            def scored(self_, batch):
                span = log.begin("serving.forward_batch", parent=_ROOT,
                                 attrs={"rows": len(batch)})
                try:
                    return func(self_, batch)
                finally:
                    log.end(span)
            return scored
        self.replace(InferenceSession, "score_batch", make)

    def http(self) -> None:
        """Server-side request spans for the in-process HTTP server."""
        import repro.serving.server as server_mod
        from repro.serving.admission import AdmissionController
        from repro.serving.router import ModelRouter
        log = self.log
        handler = http.server.BaseHTTPRequestHandler

        # Opens once the request line has arrived (not while a keep-alive
        # connection idles) and closes when the reply has been flushed.
        def make_parse(func):
            @functools.wraps(func)
            def parse(self_):
                self_._bench_span = log.begin("serving.handle", parent=_ROOT)
                return func(self_)
            return parse

        def make_handle(func):
            @functools.wraps(func)
            def handle(self_):
                self_._bench_span = None
                try:
                    return func(self_)
                finally:
                    if self_._bench_span is not None:
                        log.end(self_._bench_span)
            return handle

        self.replace(handler, "parse_request", make_parse)
        self.replace(handler, "handle_one_request", make_handle)
        self.replace(server_mod, "json", lambda _: _JsonProxy(log))
        self.time(server_mod, "rows_to_batch", "serving.validate")
        self.time(AdmissionController, "acquire", "serving.admission")
        self.time(ModelRouter, "submit", "serving.submit")

    def streaming(self) -> None:
        from repro.nn import Adam, Tensor
        from repro.resilience.checkpoint import CheckpointStore
        from repro.streaming import ClickStream, IncrementalTrainer
        import repro.streaming.incremental as incremental_mod
        log = self.log

        self.steps(ClickStream, "windows", "streaming.cycle",
                   child="streaming.generate")
        self.time(IncrementalTrainer, "prequential_eval",
                  "streaming.prequential")
        self.time(incremental_mod, "clip_grad_norm", "nn.clip")
        self._nn(Tensor, Adam)

        def make(func):
            @functools.wraps(func)
            def save(self_, ckpt, *args, **kwargs):
                span = log.begin("resilience.checkpoint")
                try:
                    path = func(self_, ckpt, *args, **kwargs)
                finally:
                    log.end(span)
                json_path = Path(path)
                span.attrs = {"bytes": os.path.getsize(json_path)
                              + os.path.getsize(json_path.with_suffix(".npz"))}
                return path
            return save
        self.replace(CheckpointStore, "save", make)


#: ``parent`` marker that opens a root span even inside another span.
class _Root:
    span_id = None


_ROOT = _Root()
