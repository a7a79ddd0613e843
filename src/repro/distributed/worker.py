"""The per-rank training loop of a data-parallel run.

``worker_main`` is the target every spawned process executes (and the
function the single-process emulator re-drives virtually, one rank at a
time).  A rank owns a disjoint round-robin partition of the training
shards, runs the existing model/optimizer math locally, and synchronises
with its peers through the :class:`~repro.distributed.shm.SharedArena`:

* **startup** — rank 0 packs its freshly built parameters into the shared
  parameter buffer; barrier A; every other rank unpacks, so all ranks open
  the run bitwise-identical.
* **per step** — each rank computes ``training_loss``/``backward`` on its
  own micro-batch, packs the flat gradient into its arena slot, then waits
  on barrier A.  Rank 0 folds the slots (:func:`~.collective.apply_update`),
  clips, steps the one real optimizer, packs the updated parameters and the
  reduced loss/grad-norm control words, and releases barrier B; the other
  ranks unpack the new parameters.  The optimizer therefore sees the mean
  gradient over ``world_size × batch_size`` rows — one global batch.
* **per epoch** — rank 0 evaluates on the validation split, applies the
  shared ``RunState.select`` selection rule, and publishes the stop
  decision through the control word.  Every rank writes its own
  :class:`~repro.resilience.RunCheckpoint`; barrier C orders those files
  before rank 0 appends the commit record to ``dist-manifest.json`` — a
  commit only exists once every rank's checkpoint for that step exists.

A rank that dies (or is SIGKILLed by the ``fail_at`` chaos hook) leaves its
peers waiting at a barrier; the launcher notices the exit, aborts the
barriers, and surfaces a :class:`~.launcher.DistributedRunError`.  Resuming
from the last manifest commit is bit-identical because each checkpoint
carries the rank's loader RNG, module RNG streams, and (on rank 0) the
optimizer moments.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from threading import BrokenBarrierError  # mp barriers raise this too

from ..data.batching import DataLoader
from ..data.pipeline import ShardPartitionView, ShardedCTRDataset, \
    partition_shards
from ..models.base import CTRModel
from ..models.registry import create_model
from ..core import MISSConfig, attach_miss
from ..nn import Adam, set_backend
from ..obs import (
    DistSyncEvent,
    EpochStartEvent,
    EvalEndEvent,
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    RunStartEvent,
)
from ..resilience import CheckpointStore
from ..resilience.atomic import atomic_write_json, atomic_write_npz
from ..training import TrainConfig, evaluate
from ..training.trainer import RunState, compute_gradients
from .collective import apply_update, rank_rng, reduce_mean, steps_per_epoch
from .shm import CTL_GRAD_NORM, CTL_LOSS, CTL_STOP, FlatLayout, SharedArena

__all__ = ["DistSpec", "build_model", "worker_main", "MANIFEST_NAME",
           "read_manifest", "rank_checkpoint_dir"]

#: Rank 0's commit record: which global steps have a full set of per-rank
#: checkpoints on disk (written atomically, after barrier C orders the files).
MANIFEST_NAME = "dist-manifest.json"
MANIFEST_KEEP = 8

@dataclass(frozen=True)
class DistSpec:
    """Everything a spawned rank needs, as picklable primitives."""

    model_name: str
    miss: dict | None               # MISSConfig kwargs, or None for baseline
    model_seed: int                 # create_model seed (MISS seed rides in miss)
    backend: str                    # nn backend name, pinned across ranks
    train_dir: str                  # sharded training split (partition source)
    val_dir: str                    # sharded validation split (rank 0 eval)
    config: dict                    # TrainConfig kwargs; batch_size is per-rank
    world_size: int
    cache_shards: int               # per-process LRU budget (locality knob)
    checkpoint_dir: str | None
    checkpoint_every: int | None
    keep_checkpoints: int = 3
    resume_step: int | None = None  # manifest-selected commit to restart from
    log_jsonl: str | None = None    # per-rank traces at "<path>.rank<r>"
    fail_at: tuple[int, int] | None = None  # (rank, step): SIGKILL chaos hook
    barrier_timeout_s: float = 120.0


def build_model(spec: DistSpec, schema) -> CTRModel:
    """The model every rank (and the emulator) builds identically."""
    model = create_model(spec.model_name, schema, seed=spec.model_seed)
    if spec.miss is not None:
        kwargs = dict(spec.miss)
        for key in ("interest_encoder_sizes", "feature_encoder_sizes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        model = attach_miss(model, MISSConfig(**kwargs))
    return model


def rank_checkpoint_dir(checkpoint_dir: str | Path, rank: int) -> Path:
    return Path(checkpoint_dir) / f"rank-{rank:02d}"


def read_manifest(checkpoint_dir: str | Path) -> dict | None:
    path = Path(checkpoint_dir) / MANIFEST_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _write_manifest(checkpoint_dir: Path, world_size: int,
                    commits: list[dict]) -> None:
    atomic_write_json(checkpoint_dir / MANIFEST_NAME, {
        "format_version": 1,
        "world_size": world_size,
        "commits": commits[-MANIFEST_KEEP:],
    })


def worker_main(rank: int, spec: DistSpec, arena_spec, barriers,
                workdir: str) -> None:
    """Entry point of rank ``rank`` (run in a spawned process)."""
    try:
        _run_rank(rank, spec, arena_spec, barriers, Path(workdir))
    except BrokenBarrierError:
        # A peer died (or the launcher aborted us); the launcher reports the
        # original failure, so exit quietly but non-zero.
        raise SystemExit(3)


def _run_rank(rank: int, spec: DistSpec, arena_spec, barriers,
              workdir: Path) -> None:
    barrier_a, barrier_b, barrier_c = barriers
    timeout = spec.barrier_timeout_s
    set_backend(spec.backend)
    cfg = TrainConfig(**spec.config)
    world = spec.world_size

    train = ShardedCTRDataset(spec.train_dir, cache_shards=spec.cache_shards)
    parts = partition_shards(train.num_shards, world)
    view = ShardPartitionView(train, parts[rank])
    rows = train.shard_rows()
    part_rows = [sum(rows[i] for i in shard_ids) for shard_ids in parts]
    steps = steps_per_epoch(part_rows, cfg.batch_size)

    model = build_model(spec, train.schema)
    params = model.parameters()
    layout = FlatLayout.from_parameters(model.named_parameters())
    arena = SharedArena.attach(arena_spec)
    optimizer = (Adam(params, lr=cfg.learning_rate,
                      weight_decay=cfg.weight_decay) if rank == 0 else None)
    validation = (ShardedCTRDataset(spec.val_dir).materialize()
                  if rank == 0 else None)

    registry = MetricRegistry()
    prefix = f"dist.rank.{rank}"
    steps_counter = registry.counter(f"{prefix}.steps")
    rows_counter = registry.counter(f"{prefix}.rows")
    wait_hist = registry.histogram(f"{prefix}.allreduce_wait_ms")
    reduce_hist = (registry.histogram("dist.reduce_ms") if rank == 0 else None)
    trace = (JsonlTraceWriter(f"{spec.log_jsonl}.rank{rank}")
             if spec.log_jsonl else None)
    obs = ObserverList.build([trace] if trace is not None else [], None)
    view.bind_telemetry(registry=registry, observers=obs)

    store = None
    if spec.checkpoint_dir is not None:
        store = CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, rank),
                                keep_last=spec.keep_checkpoints)
    manifest_commits: list[dict] = []
    manifest = (read_manifest(spec.checkpoint_dir)
                if rank == 0 and spec.checkpoint_dir is not None else None)
    if manifest is not None:
        manifest_commits = list(manifest["commits"])

    rng = rank_rng(cfg.seed, rank)
    loader = DataLoader(view, batch_size=cfg.batch_size, shuffle=True, rng=rng)
    state = RunState(rng)
    # Rank 0's every reduced step loss.  It lives in the manifest commit,
    # not the checkpoint (RunCheckpoint has no such field); JSON float64
    # round-trips exactly, so a resumed trajectory concatenates
    # bit-identically.
    step_losses: list[float] = []
    ckpt_config = {**spec.config, "world_size": world}

    if spec.resume_step is not None:
        if store is None:
            raise ValueError("resume_step requires checkpoint_dir")
        state.restore(store.load_step(spec.resume_step), model, optimizer)
        if rank == 0:
            commit = next((c for c in manifest_commits
                           if c["step"] == spec.resume_step), None)
            if commit is not None:
                step_losses = list(commit["step_losses"])

    if rank == 0:
        obs.on_run_start(RunStartEvent(
            model=type(model).__name__, num_train=len(train),
            num_validation=len(validation),
            config={**spec.config, "world_size": world,
                    "backend": spec.backend}))

    def commit_manifest(completed: bool) -> None:
        manifest_commits.append({
            "step": state.step, "epoch": state.epoch,
            "batches_done": state.batches_done, "completed": completed,
            "step_losses": [float(v) for v in step_losses],
        })
        _write_manifest(Path(spec.checkpoint_dir), world, manifest_commits)

    def sync_checkpoint(completed: bool = False) -> None:
        """All ranks persist the current step, then rank 0 commits."""
        store.save(state.capture(model, optimizer, ckpt_config),
                   is_best=False)
        barrier_c.wait(timeout=timeout)
        if rank == 0:
            commit_manifest(completed)

    # Startup broadcast: every rank opens on rank 0's exact initial weights
    # (they are already identical by construction — same seed, same backend —
    # but routing them through the float64 buffer makes that a checked
    # invariant rather than an assumption).
    if rank == 0:
        layout.pack_params(params, arena.params)
    barrier_a.wait(timeout=timeout)
    if rank != 0:
        layout.unpack_params(arena.params, params)

    model.train()
    run_start = time.perf_counter()
    epoch_seconds: list[float] = []
    while True:
        skip = state.begin_epoch()
        if skip == 0 and rank == 0:
            obs.on_epoch_start(EpochStartEvent(epoch=state.epoch))
        epoch_start = time.perf_counter()
        batch_iter = loader.iter_batches(skip=skip)
        for _ in range(steps - skip):
            batch = next(batch_iter)
            loss_value = compute_gradients(model.training_loss, batch, params)
            layout.pack_grads(params, arena.grad_slot(rank))
            arena.losses[rank] = loss_value
            if spec.fail_at is not None and spec.fail_at == (rank, state.step):
                # Chaos hook: die exactly where it hurts — gradients
                # published, barrier not yet reached.  SIGKILL means no
                # finally-blocks, no flush: the real failure mode.
                os.kill(os.getpid(), signal.SIGKILL)
            wait_start = time.perf_counter()
            barrier_a.wait(timeout=timeout)
            wait_ms = (time.perf_counter() - wait_start) * 1e3
            if rank == 0:
                reduce_start = time.perf_counter()
                grad_norm = apply_update(optimizer, layout,
                                         arena.grad_slots(), cfg.grad_clip)
                mean_loss = reduce_mean([float(v) for v in arena.losses])
                layout.pack_params(params, arena.params)
                arena.ctl[CTL_LOSS] = mean_loss
                arena.ctl[CTL_GRAD_NORM] = grad_norm
                reduce_hist.record((time.perf_counter() - reduce_start) * 1e3)
            barrier_b.wait(timeout=timeout)
            if rank != 0:
                layout.unpack_params(arena.params, params)
            mean_loss = float(arena.ctl[CTL_LOSS])
            state.count_step(mean_loss)
            if rank == 0:
                step_losses.append(mean_loss)
            steps_counter.inc()
            rows_counter.inc(len(batch.labels))
            wait_hist.record(wait_ms)
            obs.on_dist_sync(DistSyncEvent(
                rank=rank, world_size=world, step=state.step,
                epoch=state.epoch, wait_ms=wait_ms, loss=mean_loss))
            if (store is not None and spec.checkpoint_every
                    and state.step % spec.checkpoint_every == 0):
                sync_checkpoint()
        epoch_seconds.append(time.perf_counter() - epoch_start)

        # Epoch end: rank 0 evaluates and owns the selection + stop decision;
        # everyone learns it through the control word after barrier C.
        state.losses.append(state.epoch_loss / max(state.num_batches, 1))
        if rank == 0:
            result = evaluate(model, validation, batch_size=cfg.eval_batch_size)
            state.history.append(result)
            obs.on_eval_end(EvalEndEvent(
                epoch=state.epoch, split="validation", auc=result.auc,
                logloss=result.logloss, train_loss=state.losses[-1]))
            state.select(model, result.auc)
        state.advance()
        if rank == 0:
            arena.ctl[CTL_STOP] = 1.0 if state.finished(cfg) else 0.0
        if store is not None:
            sync_checkpoint()
        else:
            barrier_c.wait(timeout=timeout)
        if arena.ctl[CTL_STOP] >= 1.0:
            break

    if rank == 0:
        state.finish(model)
        if store is not None:
            # Same step number as the last epoch-end save, so this atomically
            # replaces rank 0's file; the fresh commit flags the run complete.
            store.save(state.capture(model, optimizer, ckpt_config),
                       is_best=True)
            commit_manifest(completed=True)
        atomic_write_npz(workdir / "final_state.npz", state.best_state)
        atomic_write_json(workdir / "result.json", run_record(
            state, world, steps, part_rows, step_losses, epoch_seconds,
            time.perf_counter() - run_start))
    _dump_metrics(registry, rank, workdir)
    if trace is not None:
        trace.close()


def run_record(state: RunState, world_size: int, steps: int, part_rows,
               step_losses, epoch_seconds, wall_time_s: float) -> dict:
    """JSON-safe outcome of a finished W-rank run, the same in every mode:
    rank 0 writes it as ``result.json`` and the emulator returns it."""
    return {
        "world_size": world_size,
        "best_epoch": state.best_epoch,
        "epochs_run": state.epochs_run,
        "steps": state.step,
        "steps_per_epoch": steps,
        "partition_rows": [int(r) for r in part_rows],
        "history": [{"auc": float(r.auc), "logloss": float(r.logloss)}
                    for r in state.history],
        "train_losses": [float(v) for v in state.losses],
        "step_losses": [float(v) for v in step_losses],
        "epoch_seconds": [float(s) for s in epoch_seconds],
        "wall_time_s": float(wall_time_s),
        "completed": True,
    }


def _dump_metrics(registry: MetricRegistry, rank: int, workdir: Path) -> None:
    atomic_write_json(workdir / f"metrics-rank{rank}.json",
                      registry.snapshot())
