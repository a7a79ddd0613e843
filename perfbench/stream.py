"""``stream-drift``: the online-learning loop on the interest-drift stream.

The offline DIN model is bootstrapped the way ``repro bench-stream`` does
it (a small interest world, ten epochs), then ``OnlineLoop`` serves every
impression through the live router, detects drift, trains incrementally
with a checkpoint per window, and exports, publishes, shadows and promotes
candidates through the model registry every :data:`EXPORT_EVERY` windows
and after a drift alarm.  DIN carries no MISS module here, so ``core`` does
no work.

Whether the default drift monitor raises an alarm after the onset depends
on the seed (it misses on some), so detection is reported, not checked.
"""

from __future__ import annotations

import itertools
import shutil
import time
from pathlib import Path

import numpy as np

from repro.bench.stream import (
    ONSET_WINDOW,
    SCENARIOS,
    _detection,
    _offline_bootstrap,
)
from repro.obs import BaseObserver
from repro.obs.trace import use_tracer
from repro.serving import (
    InferenceSession,
    ModelRegistry,
    ModelRouter,
    ScoringEngine,
)
from repro.streaming import (
    ClickStream,
    DriftMonitor,
    IncrementalConfig,
    IncrementalTrainer,
    OnlineLoop,
    PromotionConfig,
    PromotionController,
    StreamConfig,
)
from .common import Result, SetupTimer
from .probes import BenchTracer, Probes
from .spec import TAIL_PERCENTILE
from .spans import SpanLog, percentile, rollup

SCENARIO = "interest_drift"
IMPRESSIONS = 100          # the calibrated bench-stream window size
BOOTSTRAP_EPOCHS = 10
#: Scheduled export cadence.  The first scheduled export comes after the
#: onset at ``ONSET_WINDOW``, so a promotion cannot rebase the drift
#: monitor before it has seen the drift; every seed exports, publishes,
#: shadows and reaches a verdict several times per run.
EXPORT_EVERY = 20
TAIL_Q = TAIL_PERCENTILE["stream-drift"]
BLOCK = 10

LAYER_OF = {
    "streaming.cycle": "bench.uncovered_ms",
    "stream.window": "bench.uncovered_ms",
    "streaming.generate": "streaming.generate_ms",
    "stream.serve": "streaming.serve_ms",
    "stream.drift": "streaming.drift_ms",
    "stream.train": "streaming.train_ms",
    "streaming.prequential": "streaming.prequential_ms",
    "nn.backward": "nn.backward_ms",
    "nn.clip": "nn.clip_ms",
    "nn.optim": "nn.optim_ms",
    "resilience.checkpoint": "resilience.checkpoint_ms",
    "stream.promote": "streaming.promote_ms",
}


class WindowClock(BaseObserver):
    def __init__(self):
        self.start = time.perf_counter()
        self.ends: list[float] = []

    def on_stream_window(self, event) -> None:
        self.ends.append(time.perf_counter())

    def latencies_ms(self) -> np.ndarray:
        ends = np.array(self.ends)
        return np.diff(np.concatenate([[self.start], ends])) * 1e3

    def rows_per_s(self, rows_per_window: int) -> float:
        """Median over blocks of :data:`BLOCK` windows of rows / seconds,
        so a slow stretch of a shared machine moves at most one block."""
        seconds = self.latencies_ms() / 1e3
        blocks = [seconds[i:i + BLOCK].sum()
                  for i in range(0, len(seconds) - BLOCK + 1, BLOCK)]
        return rows_per_window * BLOCK / float(np.median(blocks))


def _engine(session):
    return ScoringEngine(session, max_batch_size=64, max_wait_ms=0.5,
                         num_workers=1, cache_size=0)


def _build(seed: int, windows: int, root: Path):
    """Bootstrap the offline model as ``repro bench-stream`` does and wire
    the loop around it."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    world, processed, artifact = _offline_bootstrap(root, seed,
                                                    BOOTSTRAP_EPOCHS)
    stream = ClickStream(world, processed, StreamConfig(
        num_windows=windows, impressions_per_window=IMPRESSIONS,
        seed=seed + 11, **SCENARIOS[SCENARIO]))
    registry = ModelRegistry(root / "registry")
    version = registry.publish(artifact, promote=True)
    router = ModelRouter(_engine)
    router.deploy_primary(InferenceSession.load(registry.path(version)),
                          version)
    trainer = IncrementalTrainer.from_artifact(
        artifact, IncrementalConfig(learning_rate=5e-3, seed=seed),
        checkpoint_dir=root / "ckpt")
    controller = PromotionController(
        registry, router,
        PromotionConfig(export_every=EXPORT_EVERY, recovery_windows=3,
                        shadow_windows=3, rollback_windows=3),
        export_dir=root / "exports", model_name="DIN")
    return OnlineLoop(stream, trainer, router, controller,
                      DriftMonitor()), router


def run(seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    res = Result()
    windows = max(100, round(8 * seconds))
    counter = itertools.count()
    setup = SetupTimer(
        lambda: _build(seed, windows, workdir / f"stream-{next(counter)}"),
        dispose=lambda built: built[1].close())
    loop, router = setup.before()
    clock = WindowClock()
    loop.observers.append(clock)
    try:
        clock.start = time.perf_counter()
        result = loop.run()
    finally:
        router.close()
    summary = result.summary()
    lat = clock.latencies_ms()
    rows_per_s = clock.rows_per_s(summary["rows"] // summary["windows"])
    res.e2e["rows_per_s"] = rows_per_s
    res.e2e["p50_ms"] = percentile(lat, 50)
    detection = _detection(result, ONSET_WINDOW)
    res.tally.attempt(summary["submitted"])
    res.tally.fail("dropped", summary["dropped"])
    guard = loop.trainer.guard
    res.tally.fail("anomaly_rollback", guard.retries if guard else 0)
    res.check("no dropped impressions", summary["dropped"] == 0,
              f"{summary['dropped']} of {summary['submitted']}")
    res.check("all windows ran", summary["windows"] == windows,
              f"{summary['windows']} of {windows}")
    exports = sum(1 for p in result.promotions if p["action"] == "published")
    res.check("candidates published and shadowed", exports >= 1,
              f"{exports} exports")
    res.info.update({
        "streaming.window_p90_ms": percentile(lat, TAIL_Q),
        "stream.windows": summary["windows"],
        "stream.rows": summary["rows"],
        # A miss reads as every window after onset (censored at the end).
        "stream.windows_to_detect": (
            detection["windows_to_detect"] if detection["detected"]
            else windows - ONSET_WINDOW),
        "stream.detected": int(detection["detected"]),
        "stream.false_alarms": detection["false_alarms"],
        "stream.exports": exports,
        "stream.promotions": summary["promotions"],
        "stream.promotion_rollbacks": summary["rollbacks"],
        "stream.production_auc_mean": summary["production_auc_mean"],
        "ops_failed_frac": res.tally.failed_frac,
    })
    res.e2e["setup_s"] = setup.after()
    if trace:
        _traced(res, seed, windows, workdir / "stream-traced", rows_per_s)
    return res


def _traced(res: Result, seed: int, windows: int, root: Path,
            untraced_rows_per_s: float) -> None:
    log = SpanLog()
    loop, router = _build(seed, windows, root)
    clock = WindowClock()
    loop.observers.append(clock)
    with Probes(log) as probes, use_tracer(BenchTracer(log)):
        probes.streaming()
        try:
            clock.start = time.perf_counter()
            summary = loop.run().summary()
        finally:
            router.close()
    means, cycles = rollup(log.spans, "streaming.cycle")
    for name, seconds in means.items():
        key = LAYER_OF.get(name, "bench.uncovered_ms")
        res.layers[key] = res.layers.get(key, 0.0) + seconds * 1e3
    res.layers["streaming.window_ms"] = sum(means.values()) * 1e3
    saves = [s for s in log.spans if s.name == "resilience.checkpoint"]
    res.layers["resilience.checkpoint_bytes"] = float(np.mean(
        [s.attrs["bytes"] for s in saves]))
    res.layers["bench.trace_overhead_frac"] = untraced_rows_per_s / \
        clock.rows_per_s(summary["rows"] // summary["windows"]) - 1.0
    res.info["trace.windows"] = cycles
    res.spans = log
