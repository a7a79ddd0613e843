"""``serve-rank``: scoring an exported DIN+MISS artifact, over HTTP and open loop.

The workload builds the amazon-books world, freezes a DIN+MISS model with
``export_artifact`` and loads it back as an :class:`InferenceSession`; the
weights do not change the cost of a forward, so the model is not trained.
Request rows pair a user history from the test split with candidate items
drawn from the seed.

The timed phase runs two keep-alive HTTP clients in a closed loop against
an in-process ``ScoringServer``; each request ranks 64 candidates for one
user and a quarter of them re-send an earlier list, as a feed refresh does.
A second, open-loop phase drives ``ModelRouter.submit`` of an in-process
engine from one generator thread at fixed rates with every row unique,
times each row from its due time, and reports per-layer context only: its
tail latencies swing too far between runs on a shared two-core machine to
serve as a regression gate.
"""

from __future__ import annotations

import http.client
import itertools
import json
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import MISSConfig, attach_miss
from repro.data.batching import Batch
from repro.data.catalogs import load_dataset
from repro.models import create_model
from repro.obs import MetricRegistry
from repro.obs.trace import SpanContext
from repro.serving import (
    PARITY_BLOCK,
    AdmissionController,
    InferenceSession,
    ModelRouter,
    ScoringEngine,
    ScoringServer,
    export_artifact,
    row_key,
    rows_to_batch,
)

from .common import Result, SetupTimer
from .probes import BenchTracer, Probes
from .spec import TAIL_PERCENTILE
from .spans import (
    SpanLog,
    due_time_latencies,
    percentile,
    rollup,
)

DATASET = "amazon-books"
#: Ladder of offered rates (rows/s); the first two are reported.
RATES = (400, 1600, 3200)
#: p99 latency limit behind ``serve.max_rps``.
LATENCY_LIMIT_MS = 50.0
PARITY_SAMPLE = 256
WARMUP_ROWS = 256
#: A row not scored this long after the last submit counts as failed.
ROW_TIMEOUT_S = 30.0
CANDIDATES = 64
REFRESH_SHARE = 0.25
#: A refresh re-sends one of the client's last few lists, so its rows are
#: still in the server's row cache.
REFRESH_WINDOW = 16
RANK_CLIENTS = 2
RANK_MIN_REQUESTS = 200
RANK_SEGMENTS = 5
#: Admission budget far above what two clients can hold in flight.
RANK_MAX_INFLIGHT = 4096

OPEN_LAYERS = {
    "bench.row": "bench.uncovered_ms",
    "bench.gen_lag": "bench.gen_lag_ms",
    "serving.submit": "serving.submit_ms",
    "serve.request": "serving.complete_ms",
    "serve.queue_wait": "serving.queue_ms",
    "serve.batch_assemble": "serving.assemble_ms",
    "serve.forward": "serving.forward_ms",
}
RANK_LAYERS = {
    "rank.request": "serving.http_ms",
    "serving.handle": "bench.uncovered_ms",
    "http.request": "bench.uncovered_ms",
    "serving.decode": "serving.decode_ms",
    "serving.validate": "serving.validate_ms",
    "serving.admission": "serving.admission_ms",
    "serving.submit": "serving.submit_ms",
    "serve.request": "serving.complete_ms",
    "serve.queue_wait": "serving.queue_ms",
    "serve.batch_assemble": "serving.assemble_ms",
    "serve.forward": "serving.forward_ms",
    "serving.encode": "serving.encode_ms",
}


# ----------------------------------------------------------------------
# Set-up and request rows
# ----------------------------------------------------------------------
class Catalog:
    """Unique user histories of the test split and the candidate items."""

    def __init__(self, data):
        test = data.test
        flat = np.concatenate([test.categorical[:, :1],
                               test.sequences.reshape(len(test), -1),
                               test.mask.astype(np.int64)], axis=1)
        _, first = np.unique(flat, axis=0, return_index=True)
        first = np.sort(first)
        self.users = test.categorical[first, 0]
        self.sequences = test.sequences[first]
        self.mask = test.mask[first]
        cats = np.concatenate([s.categorical[:, 1:3] for s in
                               (data.train, data.validation, data.test)])
        self.items, index = np.unique(cats[:, 0], return_index=True)
        self.item_cats = cats[index, 1]

    def row(self, history: int, candidate: int):
        cat = np.array([self.users[history], self.items[candidate],
                        self.item_cats[candidate]], dtype=np.int64)
        return cat, self.sequences[history], self.mask[history]

    def unique_pairs(self, rng, count: int) -> np.ndarray:
        """``count`` distinct (history, candidate) pairs."""
        c = len(self.items)
        flat = rng.choice(len(self.users) * c, size=count, replace=False)
        return np.stack([flat // c, flat % c], axis=1)


def _build(seed: int, workdir: Path, tag: str):
    data = load_dataset(DATASET, scale=1.0, seed=seed)
    miss = MISSConfig(seed=seed + 2)
    model = attach_miss(create_model("DIN", data.schema, seed=seed + 1), miss)
    artifact = workdir / f"artifact-{tag}"
    shutil.rmtree(artifact, ignore_errors=True)
    export_artifact(model, artifact, model_name="DIN", miss_config=miss,
                    metadata={"dataset": DATASET})
    return data, InferenceSession.load(artifact), artifact


def _unique_frac(rows) -> float:
    keys = {row_key(*row) for row in rows}
    return len(keys) / len(rows)


def _parity(session: InferenceSession, rows, served) -> tuple[bool, str]:
    """Served logits must equal an offline ``score_batch`` bit for bit."""
    batch = Batch(categorical=np.stack([r[0] for r in rows]),
                  sequences=np.stack([r[1] for r in rows]),
                  mask=np.stack([r[2] for r in rows]),
                  labels=np.zeros(len(rows)))
    offline = session.score_batch(batch)
    served = np.asarray(served, dtype=np.float64)
    same = bool(np.array_equal(offline, served))
    return same, f"{len(rows)} rows, max |diff| " \
        f"{float(np.max(np.abs(offline - served))):.3g}"


def _batch_stats(spans) -> dict[str, float]:
    batches = [s for s in spans if s.name == "serving.forward_batch"]
    sizes = np.array([s.attrs["rows"] for s in batches], dtype=float)
    ms = [s.duration * 1e3 for s in batches]
    computed = np.ceil(sizes / PARITY_BLOCK) * PARITY_BLOCK
    waits = [s.duration * 1e3 for s in spans
             if s.name == "serve.queue_wait"]
    return {
        "serving.forward_batch_ms": float(np.mean(ms)),
        "serving.batch_rows_mean": float(sizes.mean()),
        "serving.pad_waste_frac": float((computed - sizes).sum()
                                        / computed.sum()),
        "serving.queue_wait_p50_ms": percentile(waits, 50),
        "serving.queue_wait_p99_ms": percentile(waits, 99),
    }


def _layers(res: Result, log: SpanLog, root: str, mapping: dict) -> int:
    means, roots = rollup(log.spans, root)
    for name, seconds in means.items():
        key = mapping.get(name, "bench.uncovered_ms")
        res.layers[key] = res.layers.get(key, 0.0) + seconds * 1e3
    res.layers["serving.request_ms"] = sum(means.values()) * 1e3
    return roots


# ----------------------------------------------------------------------
# open-loop phase
# ----------------------------------------------------------------------
class OpenLoop:
    """One generator thread submitting rows on a fixed schedule."""

    def __init__(self, router: ModelRouter, log: SpanLog | None = None):
        self.router = router
        self.log = log

    def run(self, rows, rate: float) -> dict:
        """Submit ``rows`` at ``rate`` rows/s; returns per-row due, sent and
        done times (NaN when a row never completed) and logits."""
        n = len(rows)
        due = np.full(n, np.nan)
        sent = np.full(n, np.nan)
        done = np.full(n, np.nan)
        logits = np.full(n, np.nan)
        errors = []
        finished = threading.Semaphore(0)
        log = self.log

        def callback(i):
            def on_done(future):
                done[i] = time.monotonic()
                try:
                    logits[i] = future.result()
                except Exception as exc:  # counted as a failed row
                    errors.append(repr(exc))
                finished.release()
            return on_done

        start = time.monotonic() + 0.01
        for i, (cat, seq, mask) in enumerate(rows):
            due[i] = start + i / rate
            delay = due[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.monotonic()
            parent = None
            if log is not None:
                row_id = log.new_id()
                parent = SpanContext(trace_id=row_id, span_id=row_id)
            future, _ = self.router.submit(cat, seq, mask,
                                           trace_parent=parent)
            if log is not None:
                log.record("serving.submit", sent[i], time.monotonic(),
                           row_id)
                future.add_done_callback(self._close_row(row_id, due[i],
                                                         sent[i]))
            future.add_done_callback(callback(i))
        deadline = time.monotonic() + ROW_TIMEOUT_S
        for _ in range(n):
            if not finished.acquire(timeout=max(0.0,
                                                deadline - time.monotonic())):
                break
        return {"due": due, "sent": sent, "done": done, "logits": logits,
                "errors": errors}

    def _close_row(self, row_id: str, due: float, sent: float):
        log = self.log

        def close(_future):
            log.record("bench.row", due, time.monotonic(), None,
                       span_id=row_id)
            log.record("bench.gen_lag", due, sent, row_id)
        return close


def _phase_stats(out: dict) -> dict:
    lat = due_time_latencies(out["due"], out["done"])
    lag = (out["sent"] - out["due"]) * 1e3
    failed = int(len(out["due"]) - len(lat)) + len(out["errors"])
    # The last tenth of the phase: a growing backlog shows up here.
    tail = lat[-max(1, len(lat) // 10):]
    return {
        "p50": percentile(lat, 50) if len(lat) else float("nan"),
        "p99": percentile(lat, 99) if len(lat) >= 1000 else float("nan"),
        "tail_p50": float(np.median(tail)) if len(tail) else float("nan"),
        "failed": failed, "rows": len(out["due"]),
        "lag_mean": float(np.mean(lag)),
        "lag_p99": float(np.percentile(lag, 99)),
    }


def _open_engine_factory(registry, tracer):
    # The ``repro serve`` engine defaults.
    def factory(session):
        return ScoringEngine(session, registry=registry, tracer=tracer)
    return factory


def _open_phase(res: Result, session, artifact, catalog: Catalog, rng,
                seconds: int, trace: bool) -> None:
    """Open-loop scoring through ``ModelRouter.submit`` at fixed rates.

    Every row is unique, so the row cache never hits.  The rates run from
    low to high; ``serve.max_rps`` is the highest rung whose p99 meets
    :data:`LATENCY_LIMIT_MS` with no failures and no growing backlog.
    """
    durations = {400: max(2.6, 0.25 * seconds),
                 1600: max(1.0, 0.15 * seconds),
                 3200: max(0.5, 0.1 * seconds)}
    counts = [int(rate * durations[rate]) for rate in RATES]
    sizes = [WARMUP_ROWS] + counts + (counts[:2] if trace else [])
    pairs = catalog.unique_pairs(rng, sum(sizes))
    all_rows = [catalog.row(h, c) for h, c in pairs]
    chunks, at = [], 0
    for count in sizes:
        chunks.append(all_rows[at:at + count])
        at += count
    warmup, timed, traced = chunks[0], chunks[1:4], chunks[4:]

    registry = MetricRegistry()
    router = ModelRouter(_open_engine_factory(registry, None))
    router.deploy_primary(session, "v0")
    loop = OpenLoop(router)
    phases = {}
    served_rows, served_logits = [], []
    try:
        # First forwards of a fresh engine allocate buffers; not timed.
        loop.run(warmup, RATES[1])
        for rate, rows in zip(RATES, timed):
            out = loop.run(rows, rate)
            phases[rate] = _phase_stats(out)
            res.tally.attempt(len(rows))
            res.tally.fail("error_or_timeout", phases[rate]["failed"])
            ok = np.isfinite(out["logits"])
            served_rows += [r for r, good in zip(rows, ok) if good]
            served_logits += list(out["logits"][ok])
        hits = registry.counter("serve.cache.hits").value
    finally:
        router.close()

    max_rps = 0
    for rate in RATES:
        ph = phases[rate]
        if (ph["failed"] == 0 and ph["p99"] <= LATENCY_LIMIT_MS
                and ph["tail_p50"] <= LATENCY_LIMIT_MS):
            max_rps = rate
        else:
            break
    pick = rng.choice(len(served_rows), size=min(PARITY_SAMPLE,
                                                 len(served_rows)),
                      replace=False)
    same, detail = _parity(InferenceSession.load(artifact),
                           [served_rows[i] for i in pick],
                           [served_logits[i] for i in pick])
    res.check("open loop: served == offline logits", same, detail)
    unique = _unique_frac(all_rows[:sum(sizes[:4])])
    res.check("open loop: rows unique, no cache hits",
              unique == 1.0 and hits == 0, f"{unique:.4f}, {hits:g} hits")
    r400, r1600 = phases[400], phases[1600]
    res.info.update({
        "serve.p50_ms.r400": r400["p50"], "serve.p99_ms.r400": r400["p99"],
        "serve.p50_ms.r1600": r1600["p50"],
        "serve.p99_ms.r1600": r1600["p99"],
        "serve.p50_ms.r3200": phases[3200]["p50"],
        "serve.p99_ms.r3200": phases[3200]["p99"],
        "serve.max_rps": max_rps,
        "serve.open_rows": {rate: phases[rate]["rows"] for rate in RATES},
        "bench.gen_lag_ms": r400["lag_mean"],
        "bench.gen_lag_p99_ms": max(phases[r]["lag_p99"] for r in RATES[:2]),
        "serving.open_cache_hit_frac": hits / sum(counts),
        "serving.unique_row_frac": unique,
    })
    if trace:
        _traced_open(res, session, warmup, *traced, r400["p50"])


def _traced_open(res: Result, session, warmup, rows400, rows1600,
                 untraced_p50: float) -> None:
    log = SpanLog()
    router = ModelRouter(_open_engine_factory(MetricRegistry(),
                                              BenchTracer(log)))
    router.deploy_primary(session, "v0")
    OpenLoop(router).run(warmup, RATES[1])
    loop = OpenLoop(router, log)
    with Probes(log) as probes:
        probes.serving()
        try:
            start = time.monotonic()
            out = loop.run(rows400, 400)
            switch = time.monotonic()
            traced_p50 = _phase_stats(out)["p50"]
            loop.run(rows1600, 1600)
        finally:
            router.close()
    # The warm-up's queue-wait spans (first forwards allocate buffers)
    # are left out, and each rate is summarised on its own.
    timed = [s for s in log.spans if s.start >= start]
    r400 = [s for s in timed if s.start < switch]
    r1600 = [s for s in timed if s.start >= switch]
    means, _ = rollup(timed, "bench.row")
    res.info["open.row_ms"] = {OPEN_LAYERS.get(k, k): round(float(v) * 1e3, 4)
                               for k, v in means.items()}
    res.layers.update(_batch_stats(r400))
    res.info.update({f"{name}.r1600": value for name, value
                     in _batch_stats(r1600).items()})
    res.info["open.trace_overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    res.spans.spans.extend(timed)


# ----------------------------------------------------------------------
# HTTP ranking phase
# ----------------------------------------------------------------------
class RankTraffic:
    """Pre-encoded ranking requests: fresh lists plus feed refreshes."""

    def __init__(self, catalog: Catalog, rng, lists: int):
        self.rows: list[list] = []
        self.bodies: list[bytes] = []
        histories = rng.choice(len(catalog.users), size=lists,
                               replace=lists > len(catalog.users))
        for h in histories:
            cands = rng.choice(len(catalog.items), size=CANDIDATES,
                               replace=False)
            rows = [catalog.row(h, c) for c in cands]
            self.rows.append(rows)
            self.bodies.append(json.dumps([
                {"categorical": r[0].tolist(), "sequences": r[1].tolist(),
                 "mask": r[2].tolist()} for r in rows]).encode())


def _client(url_port: int, traffic: RankTraffic, fresh: list, rng,
            stop_at: float, ids, out: list, hard_stop: float) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", url_port, timeout=30)
    recent: list[int] = []
    headers = {"Content-Type": "application/json"}
    try:
        while True:
            now = time.monotonic()
            if now >= hard_stop or (now >= stop_at
                                    and len(out) >= RANK_MIN_REQUESTS):
                break
            if recent and rng.random() < REFRESH_SHARE:
                index = recent[int(rng.integers(len(recent)))]
                refresh = True
            else:
                if not fresh:
                    break
                index = fresh.pop()
                refresh = False
                recent = (recent + [index])[-REFRESH_WINDOW:]
            bench_id = next(ids)
            body = (b'{"bench_id": %d, "rows": ' % bench_id
                    + traffic.bodies[index] + b"}")
            start = time.monotonic()
            try:
                conn.request("POST", "/score", body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
            except (OSError, http.client.HTTPException) as exc:
                data, status = repr(exc).encode(), 0
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", url_port,
                                                  timeout=30)
            out.append((bench_id, index, refresh, start, time.monotonic(),
                        status, data))
    finally:
        conn.close()


def _rank_round(port: int, traffic: RankTraffic, seed: int,
                seconds: float, fresh_ids: list) -> list:
    """Two closed-loop clients until ``seconds`` have passed and
    :data:`RANK_MIN_REQUESTS` requests were sent."""
    ids = itertools.count(1)
    out: list = []
    start = time.monotonic()
    threads = [
        threading.Thread(
            target=_client,
            args=(port, traffic, fresh_ids, np.random.default_rng(
                [seed, k]), start + seconds, ids, out,
                start + 4 * seconds + 30),
            name=f"rank-client-{k}")
        for k in range(RANK_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def _rank_stats(records: list) -> dict:
    """Latency percentiles, and rows/s as the median over
    :data:`RANK_SEGMENTS` equal stretches of the phase, so a slow stretch
    of a shared machine moves at most one of them."""
    ok = [r for r in records if r[5] == 200]
    lat = np.array([(r[4] - r[3]) * 1e3 for r in ok])
    first = min(r[3] for r in records)
    last = max(r[4] for r in records)
    edges = np.linspace(first, last, RANK_SEGMENTS + 1)
    done = np.histogram([r[4] for r in ok], bins=edges)[0]
    return {
        "requests": len(records), "ok": len(ok),
        "rows_per_s": float(np.median(done)) * CANDIDATES
        / (edges[1] - edges[0]),
        "p50": percentile(lat, 50),
        "p95": percentile(lat, TAIL_PERCENTILE["serve-rank"]),
        "refresh_share": float(np.mean([r[2] for r in records])),
    }


def _start_server(session, registry: MetricRegistry,
                  tracer=None) -> ScoringServer:
    # ``repro serve`` defaults plus an admission budget that never sheds.
    return ScoringServer(
        session, port=0, registry=registry,
        admission=AdmissionController(RANK_MAX_INFLIGHT),
        tracer=tracer).start()


def run_rank(seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    res = Result()
    rng = np.random.default_rng(seed)

    def build():
        data, session, artifact = _build(seed, workdir, "rank")
        registry = MetricRegistry()
        return data, session, artifact, registry, _start_server(
            session, registry)

    setup = SetupTimer(build, dispose=lambda b: b[4].close())
    data, session, artifact, registry, server = setup.before()
    catalog = Catalog(data)
    lists = int(50 * seconds + 200)
    traffic = RankTraffic(catalog, rng, lists)
    fresh = list(range(lists))[::-1]
    try:
        records = _rank_round(server.port, traffic, seed, seconds, fresh)
        hits = registry.counter("serve.cache.hits").value
        misses = registry.counter("serve.cache.misses").value
    finally:
        server.close()

    stats = _rank_stats(records)
    res.tally.attempt(len(records))
    res.tally.fail("non_200_or_error", len(records) - stats["ok"])
    res.e2e["rows_per_s"] = stats["rows_per_s"]
    res.e2e["p50_ms"] = stats["p50"]
    _rank_checks(res, artifact, traffic, records, rng)
    res.info.update({
        "serving.request_p95_ms": stats["p95"],
        "rank.requests": stats["requests"],
        "rank.refresh_share": stats["refresh_share"],
        "serving.cache_hit_frac": hits / max(hits + misses, 1),
    })
    if trace:
        # A fresh server starts with an empty row cache, so the same
        # lists replay with the same hit pattern.
        _traced_rank(res, session, traffic, seed, seconds,
                     list(range(lists))[::-1], stats["rows_per_s"])
    _open_phase(res, session, artifact, catalog, rng, seconds, trace)
    res.e2e["setup_s"] = setup.after()
    res.check("no failed operations", res.tally.failed == 0,
              f"{res.tally.failed} of {res.tally.attempted}")
    res.info["ops_failed_frac"] = res.tally.failed_frac
    return res


def _rank_checks(res: Result, artifact, traffic: RankTraffic, records,
                 rng) -> None:
    ok = [r for r in records if r[5] == 200]
    res.check("all requests 200", len(ok) == len(records),
              f"{len(ok)} of {len(records)}")
    if not ok:
        return
    pick = rng.choice(len(ok), size=min(8, len(ok)), replace=False)
    rows, served = [], []
    for i in pick:
        _, index, _, _, _, _, data = ok[i]
        rows += traffic.rows[index]
        served += json.loads(data)["logits"]
    session = InferenceSession.load(artifact)
    same, detail = _parity(session, rows, served)
    res.check("served == offline logits", same, detail)
    # The HTTP path validates rows the same way: one sampled request
    # through rows_to_batch must score identically too.
    batch = rows_to_batch(session.schema, [
        {"categorical": r[0], "sequences": r[1], "mask": r[2]}
        for r in traffic.rows[ok[pick[0]][1]]])
    res.check("rows_to_batch parity", np.array_equal(
        session.score_batch(batch),
        np.asarray(json.loads(ok[pick[0]][6])["logits"])), "1 request")


def _traced_rank(res: Result, session, traffic, seed: int, seconds: int,
                 fresh: list, untraced_rows_per_s: float) -> None:
    log = SpanLog()
    server = _start_server(session, MetricRegistry(), BenchTracer(log))
    with Probes(log) as probes:
        probes.serving()
        probes.http()
        try:
            records = _rank_round(server.port, traffic, seed, seconds,
                                  fresh)
        finally:
            server.close()
    clients = {}
    for bench_id, _, _, start, end, status, _ in records:
        if status == 200:
            clients[bench_id] = log.record("rank.request", start, end, None)
    for span in list(log.spans):
        if span.name == "serving.handle" and span.attrs:
            client = clients.get(span.attrs.get("bench_id"))
            if client is not None:
                span.parent_id = client.span_id
    _layers(res, log, "rank.request", RANK_LAYERS)
    batches = _batch_stats(log.spans)
    res.layers["serving.rank_batch_rows_mean"] = \
        batches["serving.batch_rows_mean"]
    res.layers["serving.rank_forward_batch_ms"] = \
        batches["serving.forward_batch_ms"]
    traced = _rank_stats(records)["rows_per_s"]
    res.layers["bench.trace_overhead_frac"] = \
        untraced_rows_per_s / traced - 1.0
    res.spans = log
