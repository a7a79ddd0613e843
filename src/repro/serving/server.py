"""Stdlib HTTP scoring endpoint over the micro-batched engine fleet.

Routes:

``POST /score``
    Body ``{"rows": [{"categorical": [...], "sequences": [[...]], "mask":
    [...]}]}`` (or a single row object).  Rows are validated against the
    artifact's schema, admitted (or shed with 429 + ``Retry-After``) by the
    admission controller, routed across primary/challenger engines with an
    optional shadow copy, and come back as ``{"logits": [...],
    "probabilities": [...]}`` in request order.  An ``X-Deadline-Ms``
    header caps the request's budget end-to-end: the deadline travels into
    the batcher, expired work is rejected (504) instead of scored, and the
    handler waits on all futures under one shared deadline — an N-row
    request can never wait N × timeout.
``GET /healthz``
    Readiness JSON: ``"ok"`` (200) while accepting work, ``"degraded"``
    (503) while the circuit breaker is open, ``"draining"`` (503) once
    shutdown began — plus the artifact digest, fleet roles (primary /
    shadow / challenger versions), backend pin, queue depth, admission and
    breaker snapshots.
``GET /metrics`` / ``GET /metrics.json``
    Prometheus text exposition v0.0.4, or the JSON snapshot.
``GET /openapi.json``
    The server's contract as an OpenAPI 3.0 document, derived from the live
    schema (see :mod:`repro.serving.openapi`).
``POST /admin/reload``
    Atomic hot-swap: load + digest-verify a new artifact (by path, or by
    version when a model registry is attached), then drain-and-switch the
    primary engine with zero dropped requests.

The no-500s contract: malformed input — invalid JSON, wrong shapes, bad
headers, unknown fields, any parse-time surprise — is always answered with
a 4xx.  A 5xx can only mean the *server* failed (model error, shutdown
race), and the fuzz harness (tests/test_serving_fuzz.py) holds the line.

Shutdown is graceful by construction: :meth:`ScoringServer.close` stops the
accept loop, waits for in-flight handler threads, and drains every engine
so each accepted request is answered before the process exits.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..obs import (
    MetricRegistry,
    ModelSwappedEvent,
    ObserverList,
    RequestShedEvent,
)
from ..obs.trace import Tracer
from .admission import (
    AdmissionController,
    CircuitBreaker,
    DeadlineExceededError,
    ShedError,
    parse_deadline_ms,
)
from .artifact import ArtifactError
from .batcher import EngineClosedError, ScoringEngine
from .openapi import build_openapi
from .registry import ModelRegistry, RegistryError
from .router import ModelRouter
from .session import InferenceSession, rows_to_batch

__all__ = ["ScoringServer"]

_MAX_BODY_BYTES = 32 * 1024 * 1024
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _GracefulHTTPServer(ThreadingHTTPServer):
    # Wait for in-flight handler threads at server_close so a drain never
    # abandons a request that already reached a handler.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


class ScoringServer:
    """Own a model router plus an HTTP front end; start/close from any thread.

    ``admission`` (bounded in-flight budget → 429s) and ``breaker``
    (failure-rate circuit → degraded 503s) are optional; without them the
    server behaves like the pre-fleet single-model endpoint.  ``registry``
    (a :class:`ModelRegistry`) enables ``/admin/reload`` by version name.
    """

    def __init__(self, session: InferenceSession, *, host: str = "127.0.0.1",
                 port: int = 0, max_batch_size: int = 64,
                 max_wait_ms: float = 2.0, num_workers: int = 1,
                 cache_size: int = 4096,
                 registry: MetricRegistry | None = None,
                 observers=None, request_timeout_s: float = 30.0,
                 tracer: Tracer | None = None,
                 version: str = "v0",
                 admission: AdmissionController | None = None,
                 breaker: CircuitBreaker | None = None,
                 model_registry: ModelRegistry | None = None):
        self.tracer = tracer
        self.metrics = registry if registry is not None else MetricRegistry()
        self._engine_observers = list(observers or [])
        self._observers = ObserverList.build(self._engine_observers)
        self._engine_knobs = {
            "max_batch_size": max_batch_size, "max_wait_ms": max_wait_ms,
            "num_workers": num_workers, "cache_size": cache_size,
        }
        self.router = ModelRouter(self._build_engine, metrics=self.metrics)
        self.router.deploy_primary(session, version)
        self.admission = admission
        self.breaker = breaker
        self.model_registry = model_registry
        self.request_timeout_s = request_timeout_s
        self._reload_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._httpd = _GracefulHTTPServer((host, port), _make_handler(self))
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None
        self._closed = False

    def _build_engine(self, session: InferenceSession) -> ScoringEngine:
        return ScoringEngine(
            session, registry=self.metrics,
            observers=self._engine_observers, tracer=self.tracer,
            **self._engine_knobs)

    # Back-compat accessors: pre-fleet callers see the primary deployment.
    @property
    def session(self) -> InferenceSession:
        return self.router.primary_session

    @property
    def engine(self) -> ScoringEngine:
        return self.router.primary_engine

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ScoringServer":
        """Run the accept loop in a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="scoring-http", daemon=True)
        self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting, finish in-flight handlers, drain every engine."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()          # stop the accept loop
        self._httpd.server_close()      # waits for handler threads
        self.router.close(drain=drain)  # then flush whatever they queued
        if self._thread is not None:
            self._thread.join()

    # ------------------------------------------------------------------
    # Fleet operations
    # ------------------------------------------------------------------
    def reload(self, *, artifact: str | Path | None = None,
               version: str | None = None) -> dict[str, Any]:
        """Hot-swap the primary model with zero dropped requests.

        Pass ``artifact`` (a path to an exported artifact directory) or
        ``version`` (requires an attached model registry).  The incoming
        artifact is fully digest-verified at load and must have the same
        feature schema as the current primary — requests validated against
        one schema must stay scorable after the swap.
        """
        if (artifact is None) == (version is None):
            raise ValueError("pass exactly one of artifact= or version=")
        if version is not None:
            if self.model_registry is None:
                raise RegistryError(
                    "no model registry attached; reload by artifact path")
            artifact = self.model_registry.path(version)
        label = version if version is not None else f"swap-{int(time.time())}"
        with self._reload_lock:
            incoming = InferenceSession.load(artifact)
            current = self.session
            if incoming.schema != current.schema:
                raise ArtifactError(
                    f"incoming artifact's schema {incoming.schema.name!r} "
                    f"differs from the serving schema "
                    f"{current.schema.name!r}; hot swap requires "
                    f"schema-compatible artifacts")
            swap = self.router.deploy_primary(incoming, label)
        swap["digest"] = incoming.artifact_digest()
        self._observers.on_model_swapped(ModelSwappedEvent(
            old_version=swap["old_version"], new_version=label,
            digest=swap["digest"], swap_ms=swap["swap_ms"]))
        return swap

    def shed(self, reason: str, retry_after_s: float | None = None) -> None:
        """Count + narrate one shed decision (429/503 fast-fail)."""
        self.metrics.counter("serve.shed").inc()
        self.metrics.counter(f"serve.shed.{reason}").inc()
        self._observers.on_request_shed(RequestShedEvent(
            reason=reason, queue_depth=self.engine.queue_depth(),
            retry_after_s=retry_after_s))

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def health(self) -> tuple[int, dict[str, Any]]:
        """(status_code, payload) for ``GET /healthz``.

        Draining (shutdown in progress) and degraded (circuit breaker
        open) both report 503 so load balancers stop routing; everything
        else is 200.
        """
        draining = self.engine.closed
        degraded = (self.breaker is not None
                    and self.breaker.state != CircuitBreaker.CLOSED)
        if draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        payload: dict[str, Any] = {
            "status": status,
            "ready": status == "ok",
            "draining": draining,
            "queue_depth": self.engine.queue_depth(),
            "uptime_s": self.uptime_s(),
            "artifact_digest": self.session.artifact_digest(),
            "fleet": self.router.describe(),
            **self.session.describe(),
        }
        if self.breaker is not None:
            payload["breaker"] = self.breaker.snapshot()
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        return (503 if status != "ok" else 200), payload

    def _update_scrape_gauges(self) -> None:
        """Refresh point-in-time gauges so both exposition formats carry
        current queue/cache/uptime state at scrape time."""
        registry = self.metrics
        registry.gauge("serve.uptime_seconds").set(self.uptime_s())
        registry.gauge("serve.queue_depth_current").set(
            self.engine.queue_depth())
        registry.gauge("serve.cache_size").set(len(self.engine.cache))
        registry.gauge("serve.cache_capacity").set(
            self.engine.cache.capacity)
        if self.admission is not None:
            registry.gauge("serve.admission_inflight").set(
                self.admission.inflight)
        if self.breaker is not None:
            registry.gauge("serve.breaker_open").set(
                0.0 if self.breaker.state == CircuitBreaker.CLOSED else 1.0)

    def metrics_json(self) -> dict[str, Any]:
        self._update_scrape_gauges()
        stats = self.engine.stats()
        stats["uptime_s"] = self.uptime_s()
        stats["fleet"] = self.router.describe()
        return stats

    def metrics_prometheus(self) -> str:
        self._update_scrape_gauges()
        return self.metrics.render_prometheus()

    def openapi(self) -> dict[str, Any]:
        return build_openapi(self.session, server_url=self.url)

    def __enter__(self) -> "ScoringServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)


def _make_handler(server: ScoringServer):
    registry = server.metrics

    def count_request(endpoint: str, status: int) -> None:
        registry.counter(f"serve.http.{endpoint}.requests").inc()
        if status >= 400:
            registry.counter(f"serve.http.{endpoint}.errors").inc()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The serving engine has its own telemetry; per-request stderr lines
        # from the stdlib handler would just interleave across threads.
        def log_message(self, format: str, *args) -> None:
            pass

        def _send(self, status: int, body: bytes, content_type: str,
                  extra_headers: dict[str, str] | None = None) -> None:
            # Status line, headers and body leave in ONE write.  Written
            # apart, the body is a second small segment that Nagle's
            # algorithm holds until the client ACKs the first — and a
            # keep-alive client delays that ACK by up to 40 ms on Linux.
            headers = {"Server": self.version_string(),
                       "Date": self.date_time_string(),
                       "Content-Type": content_type,
                       "Content-Length": str(len(body)),
                       **(extra_headers or {})}
            head = "".join(f"{name}: {value}\r\n"
                           for name, value in headers.items())
            self.wfile.write(
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n{head}\r\n"
                .encode("latin-1") + body)

        def _reply(self, status: int, payload: dict[str, Any],
                   endpoint: str | None = None,
                   extra_headers: dict[str, str] | None = None) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._send(status, body, "application/json",
                       extra_headers=extra_headers)
            if endpoint is not None:
                count_request(endpoint, status)

        def _wants_json(self) -> bool:
            return "application/json" in self.headers.get("Accept", "")

        def do_GET(self) -> None:
            try:
                self._route_get()
            except (BrokenPipeError, ConnectionError):
                raise
            except Exception as exc:  # no-500s: an unparseable request
                self._reply(400, {"error": f"unprocessable request: "
                                           f"{exc!r}"}, endpoint="unknown")

        def _route_get(self) -> None:
            if self.path == "/healthz":
                status, payload = server.health()
                self._reply(status, payload, endpoint="healthz")
            elif self.path == "/metrics.json" or (
                    self.path == "/metrics" and self._wants_json()):
                self._reply(200, server.metrics_json(), endpoint="metrics")
            elif self.path == "/metrics":
                body = server.metrics_prometheus().encode("utf-8")
                self._send(200, body, _PROMETHEUS_CONTENT_TYPE)
                count_request("metrics", 200)
            elif self.path == "/openapi.json":
                self._reply(200, server.openapi(), endpoint="openapi")
            else:
                self._reply(404, {"error": f"no route {self.path}"},
                            endpoint="unknown")

        def do_POST(self) -> None:
            try:
                self._route_post()
            except (BrokenPipeError, ConnectionError):
                raise
            except Exception as exc:  # no-500s: an unparseable request
                self._reply(400, {"error": f"unprocessable request: "
                                           f"{exc!r}"}, endpoint="unknown")

        def _route_post(self) -> None:
            if self.path == "/admin/reload":
                self._handle_reload()
                return
            if self.path != "/score":
                self._reply(404, {"error": f"no route {self.path}"},
                            endpoint="unknown")
                return
            tracer = server.tracer
            if tracer is None:
                self._handle_score(None, None, {})
                return
            ingress = tracer.make_context()
            start = time.monotonic()
            # The handler annotates attrs in place (model_version once the
            # router picks the scoring deployment).
            attrs: dict[str, Any] = {"endpoint": "score"}
            status = self._handle_score(tracer, ingress, attrs)
            attrs["status"] = status
            tracer.record_span(
                "http.request", ingress, start, time.monotonic(),
                span_id=ingress.span_id, parent_id=None, attrs=attrs)

        def _read_json_body(self) -> tuple[Any | None, int | None]:
            """(payload, None) on success, (None, status-already-sent)."""
            def reply(status: int, payload: dict[str, Any]) -> int:
                self._reply(status, payload, endpoint="score")
                return status

            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                return None, reply(411, {"error": "invalid Content-Length"})
            if length <= 0:
                return None, reply(411, {"error": "Content-Length required"})
            if length > _MAX_BODY_BYTES:
                return None, reply(413, {"error": "request body too large"})
            try:
                payload = json.loads(self.rfile.read(length))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return None, reply(400, {"error": f"invalid JSON: {exc}"})
            return payload, None

        def _handle_reload(self) -> None:
            payload, sent = self._read_json_body()
            if sent is not None:
                return
            if not isinstance(payload, dict) or not (
                    isinstance(payload.get("artifact"), str)
                    ^ isinstance(payload.get("version"), str)):
                self._reply(400, {"error": "body must set exactly one of "
                                           '"artifact" (path) or "version" '
                                           "(registry name), as a string"},
                            endpoint="reload")
                return
            try:
                swap = server.reload(artifact=payload.get("artifact"),
                                     version=payload.get("version"))
            except (ArtifactError, RegistryError, OSError) as exc:
                self._reply(409, {"error": f"reload rejected: {exc}"},
                            endpoint="reload")
                return
            self._reply(200, {"status": "swapped", **swap},
                        endpoint="reload")

        def _handle_score(self, tracer, ingress,
                          span_attrs: dict[str, Any]) -> int:
            def reply(status: int, payload: dict[str, Any],
                      extra_headers: dict[str, str] | None = None) -> int:
                self._reply(status, payload, endpoint="score",
                            extra_headers=extra_headers)
                return status

            start = time.monotonic()
            # Body first, even when about to shed: leaving unread bytes on
            # the socket would desync a keep-alive connection.
            payload, sent = self._read_json_body()
            if sent is not None:
                return sent
            breaker = server.breaker
            if breaker is not None and not breaker.allow():
                server.shed("breaker_open")
                return reply(503, {"error": "circuit breaker open: the "
                                            "model is failing; retry later"},
                             extra_headers={"Retry-After":
                                            f"{breaker.cooldown_s:.1f}"})
            try:
                deadline_ms = parse_deadline_ms(
                    self.headers.get("X-Deadline-Ms"))
            except ValueError as exc:
                return reply(400, {"error": str(exc)})
            rows = payload.get("rows") if isinstance(payload, dict) else None
            if rows is None and isinstance(payload, dict):
                rows = [payload]        # single-row shorthand
            if not isinstance(rows, list) or not rows:
                return reply(400, {"error": "body must be a row object or "
                                            '{"rows": [...]} with >= 1 row'})
            try:
                batch = rows_to_batch(server.session.schema, rows)
            except (ValueError, TypeError) as exc:
                return reply(400, {"error": str(exc)})
            # One end-to-end budget for the whole request: the server cap,
            # shortened by the client's X-Deadline-Ms when present.  The
            # deadline rides into the batcher (expired rows are rejected
            # unscored) and bounds the shared wait below.
            budget_s = server.request_timeout_s
            if deadline_ms is not None:
                budget_s = min(budget_s, deadline_ms / 1000.0)
            deadline = start + budget_s
            admission = server.admission
            if admission is not None:
                try:
                    admission.acquire(len(batch))
                except ShedError as exc:
                    server.shed("queue_full", exc.retry_after_s)
                    return reply(429, {"error": str(exc)},
                                 extra_headers={"Retry-After":
                                                f"{exc.retry_after_s:.1f}"})
            try:
                return self._score_admitted(reply, batch, deadline, ingress,
                                            breaker, span_attrs)
            finally:
                if admission is not None:
                    admission.release(len(batch))

        def _score_admitted(self, reply, batch, deadline: float, ingress,
                            breaker, span_attrs: dict[str, Any]) -> int:
            session = server.session
            futures = []
            try:
                # One routed unit: every row lands on the same primary even
                # when an /admin/reload swaps it mid-request.  With an A/B
                # challenger, rows still split per row; the response names
                # the version that scored the last row.
                futures, versions = server.router.submit_rows(
                    batch.categorical, batch.sequences, batch.mask,
                    trace_parent=ingress, deadline=deadline)
                version = versions[-1]
                span_attrs["model_version"] = version
                logits = []
                for f in futures:
                    remaining = max(0.0, deadline - time.monotonic())
                    logits.append(f.result(timeout=remaining))
            except EngineClosedError:
                ScoringEngine.abandon(futures)
                return reply(503, {"error": "server is shutting down"})
            except DeadlineExceededError:
                ScoringEngine.abandon(futures)
                server.metrics.counter("serve.deadline_504").inc()
                return reply(504, {"error": "deadline exceeded before "
                                            "scoring finished"})
            except (TimeoutError, FutureTimeoutError):
                # concurrent.futures.TimeoutError only aliases the builtin
                # from Python 3.11; catch both for the 3.10 CI lane.
                # Cancel what is still queued so no worker scores rows this
                # handler already stopped waiting for.
                ScoringEngine.abandon(futures)
                if breaker is not None:
                    breaker.record(False)
                return reply(504, {"error": "scoring timed out"})
            except Exception as exc:  # model failure surfaced via futures
                ScoringEngine.abandon(futures)
                if breaker is not None:
                    breaker.record(False)
                return reply(500, {"error": f"scoring failed: {exc!r}"})
            if breaker is not None:
                breaker.record(True)
            probs = session.probabilities(logits)
            return reply(200, {"model": session.model_name,
                               "model_version": version,
                               "logits": [float(v) for v in logits],
                               "probabilities": [float(p) for p in probs]})

    return Handler
