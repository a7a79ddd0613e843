"""``train-miss``: DIN+MISS joint training, one process then dp2.

Phase 1 trains through ``run_experiment`` (``Trainer.fit``) at batch 128
with per-epoch validation and reports rows/s over the step loop, step
latency, time to a validation-AUC target and calibrated test AUC.  Phase 2
trains the same task with ``run_distributed`` at world size 2: global batch
2 x 64 and a shard cache that holds every shard, so the comparison with
phase 1 is not a cache-locality effect.
"""

from __future__ import annotations

import itertools
import math
import shutil
import statistics
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core import MISSConfig, attach_miss
from repro.data.catalogs import load_dataset
from repro.distributed import (
    DistributedRunError,
    DistSpec,
    prepare_dist_data,
    run_distributed,
)
from repro.models import create_model
from repro.obs import BaseObserver
from repro.training import TrainConfig, run_experiment

from .common import Result, SetupTimer
from .probes import Probes
from .spec import TAIL_PERCENTILE
from .spans import SpanLog, percentile, rollup

DATASET = "amazon-books"
BATCH = 128
DP_WORLD = 2
NUM_SHARDS = 8
#: Validation AUC that ``train.time_to_auc_s`` waits for (checked at epoch
#: ends).  Epoch 2 clears it on this task; epoch 1 does not.
AUC_TARGET = 0.78
#: Calibrated test AUC below this means training is broken.
MIN_TEST_AUC = 0.75
TAIL_Q = TAIL_PERCENTILE["train-miss"]

LAYER_OF = {
    "training.step": "bench.uncovered_ms",
    "data.batch": "data.batch_ms",
    "models.forward": "models.forward_self_ms",
    "models.ctr_loss": "models.ctr_loss_ms",
    "core.ssl": "core.ssl_self_ms",
    "core.mie": "core.mie_ms",
    "core.augment": "core.augment_ms",
    "core.mimfe": "core.mimfe_ms",
    "core.encode": "core.encode_ms",
    "core.infonce": "core.infonce_ms",
    "nn.backward": "nn.backward_ms",
    "nn.clip": "nn.clip_ms",
    "nn.optim": "nn.optim_ms",
}


class StepClock(BaseObserver):
    """Step wall times and epoch-end validation AUCs, from trainer events."""

    def __init__(self):
        self.start = time.perf_counter()
        self.last = self.start
        self.steps: list[tuple[float, int, float]] = []  # (s, rows, loss)
        self.epoch_of: list[int] = []
        self.evals: list[tuple[float, float]] = []       # (s since start, auc)

    def on_epoch_start(self, event) -> None:
        self.last = time.perf_counter()

    def on_batch_end(self, event) -> None:
        now = time.perf_counter()
        self.steps.append((now - self.last, len(event.batch), event.loss))
        self.epoch_of.append(event.epoch)
        self.last = now

    def rows_per_s(self) -> float:
        """Median over epochs of rows / step-loop seconds, so a slow
        stretch of a shared machine moves at most one epoch's rate."""
        rates = []
        for epoch in sorted(set(self.epoch_of)):
            steps = [st for st, e in zip(self.steps, self.epoch_of)
                     if e == epoch]
            rates.append(sum(r for _, r, _ in steps)
                         / sum(s for s, _, _ in steps))
        return statistics.median(rates)

    def on_eval_end(self, event) -> None:
        if event.split == "validation":
            self.evals.append((time.perf_counter() - self.start, event.auc))


def _hist_mean(metrics: dict, name: str) -> float:
    """Mean of a histogram in a ``MetricRegistry.snapshot`` dump."""
    value = (metrics.get(name) or {}).get("mean")
    return float(value) if value is not None else float("nan")


def _model(data, seed: int):
    return attach_miss(create_model("DIN", data.schema, seed=seed + 1),
                       MISSConfig(seed=seed + 2))


def _single(data, seed: int, epochs: int) -> tuple[StepClock, float]:
    clock = StepClock()
    result = run_experiment(
        _model(data, seed), data,
        TrainConfig(epochs=epochs, batch_size=BATCH, seed=seed,
                    patience=epochs),
        model_name="DIN-MISS", observers=[clock])
    return clock, result.test.auc


def run(seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    res = Result()
    epochs = max(4, math.ceil(seconds / 3))
    dp_epochs = 2
    counter = itertools.count()

    def build():
        data = load_dataset(DATASET, scale=1.0, seed=seed)
        model = _model(data, seed)
        shard_size = -(-len(data.train) // NUM_SHARDS)
        dirs = prepare_dist_data(data.train, data.validation,
                                 workdir / f"shards-{next(counter)}",
                                 shard_size=shard_size)
        return data, model, dirs

    def dispose(built):
        shutil.rmtree(built[2][0].parent, ignore_errors=True)

    setup = SetupTimer(build, dispose)
    data, model, (train_dir, val_dir) = setup.before()
    params = sum(p.data.size for p in model.parameters())
    del model

    # Phase 1: one process.
    clock, test_auc = _single(data, seed, epochs)
    step_s = np.array([s for s, _, _ in clock.steps])
    losses = np.array([loss for _, _, loss in clock.steps])
    res.tally.attempt(len(step_s))
    res.tally.fail("non_finite_loss", int((~np.isfinite(losses)).sum()))
    rows_per_s = clock.rows_per_s()
    res.e2e["rows_per_s"] = rows_per_s
    res.e2e["p50_ms"] = percentile(step_s * 1e3, 50)
    reached = [t for t, auc in clock.evals if auc >= AUC_TARGET]
    tta = reached[0] if reached else float("nan")
    res.check("loss finite", np.isfinite(losses).all(),
              f"{len(losses)} steps")
    res.check("test AUC", test_auc >= MIN_TEST_AUC,
              f"{test_auc:.4f} >= {MIN_TEST_AUC}")
    res.check("validation AUC target", bool(reached),
              f"AUCs {[round(a, 4) for _, a in clock.evals]} "
              f"vs {AUC_TARGET}")
    res.info.update({
        "train.epochs": epochs, "train.steps": len(step_s),
        "train.time_to_auc_s": tta, "train.test_auc": test_auc,
        "train.val_auc": [round(a, 4) for _, a in clock.evals],
        "training.step_p50_ms": res.e2e["p50_ms"],
        "training.step_p90_ms": percentile(step_s * 1e3, TAIL_Q),
    })

    # Phase 2: dp2 on the same task.
    spec = DistSpec(
        model_name="DIN", miss=asdict(MISSConfig(seed=seed + 2)),
        model_seed=seed + 1, backend="fused",
        train_dir=str(train_dir), val_dir=str(val_dir),
        config=dict(epochs=dp_epochs, batch_size=BATCH // DP_WORLD,
                    eval_batch_size=512, learning_rate=1e-2,
                    weight_decay=1e-5, patience=dp_epochs, grad_clip=10.0,
                    seed=seed),
        world_size=DP_WORLD, cache_shards=NUM_SHARDS,
        checkpoint_dir=None, checkpoint_every=None)
    res.tally.attempt(DP_WORLD)
    start = time.perf_counter()
    try:
        dist = run_distributed(spec)
    except DistributedRunError as exc:
        res.tally.fail("failed_ranks", len(exc.failed_ranks) or DP_WORLD)
        res.check("dp2 run", False, str(exc))
        dist = None
    launch_s = time.perf_counter() - start
    if dist is not None:
        dp_rows = dist.steps_per_epoch * BATCH * len(dist.epoch_seconds)
        dp_rows_per_s = dp_rows / sum(dist.epoch_seconds)
        step_ms = sum(dist.epoch_seconds) / max(dist.steps, 1) * 1e3
        waits = [_hist_mean(dist.metrics, f"dist.rank.{r}.allreduce_wait_ms")
                 for r in range(DP_WORLD)]
        dp_auc = [h["auc"] for h in dist.history]
        res.check("dp2 losses finite",
                  all(math.isfinite(v) for v in dist.step_losses),
                  f"{len(dist.step_losses)} steps")
        res.check("dp2 validation AUC", all(math.isfinite(a) and a > 0.5
                                            for a in dp_auc),
                  f"{[round(a, 4) for a in dp_auc]}")
        res.info.update({
            "train.dp2_rows_per_s": dp_rows_per_s,
            "train.dp2_speedup": dp_rows_per_s / rows_per_s,
            "distributed.reduce_ms": _hist_mean(dist.metrics,
                                                "dist.reduce_ms"),
            "distributed.barrier_wait_ms.r0": waits[0],
            "distributed.barrier_wait_ms.r1": waits[1],
            # Per step each rank publishes its float64 gradient slot and
            # reads back the float64 parameter vector.
            "distributed.bytes_per_step": 2 * DP_WORLD * params * 8,
            "distributed.spawn_s": launch_s - dist.wall_time_s,
            "distributed.rank_imbalance":
                (max(waits) - min(waits)) / step_ms,
            "train.dp2_step_ms": step_ms,
        })

    res.info["ops_failed_frac"] = res.tally.failed_frac
    res.e2e["setup_s"] = setup.after()
    if trace:
        _traced(res, data, seed, epochs, rows_per_s)
    return res


def _traced(res: Result, data, seed: int, epochs: int,
            untraced_rows_per_s: float) -> None:
    log = SpanLog()
    with Probes(log) as probes:
        probes.training()
        clock, _ = _single(data, seed, epochs)
    traced_rows_per_s = clock.rows_per_s()
    means, steps = rollup(log.spans, "training.step")
    layers = res.layers
    for name, seconds in means.items():
        key = LAYER_OF.get(name, "bench.uncovered_ms")
        layers[key] = layers.get(key, 0.0) + seconds * 1e3
    layers["training.step_ms"] = sum(means.values()) * 1e3
    evals = [s.duration for s in log.spans if s.name == "training.eval"]
    layers["training.eval_ms"] = statistics.mean(evals) * 1e3
    nodes = [s.attrs["nodes"] for s in log.spans
             if s.name == "training.step" and s.attrs]
    layers["nn.tensors_per_step"] = statistics.median(nodes)
    layers["bench.trace_overhead_frac"] = \
        untraced_rows_per_s / traced_rows_per_s - 1.0
    res.info["trace.steps"] = steps
    res.spans = log
