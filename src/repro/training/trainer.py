"""Mini-batch training loop with validation-based model selection.

Follows the paper's protocol (§VI-A5): Adam optimiser, batch size 128, the
validation split drives hyper-parameter/epoch selection, and reported numbers
come from the test split.

The loop narrates itself through the :mod:`repro.obs` event bus: pass
``observers=[...]`` to receive structured run/epoch/batch/eval events, with
per-phase wall-time (data assembly, forward, backward, optimiser step, eval)
and per-component losses when the model exposes them.  The historical
``on_batch_end(model, batch, step)`` callback keeps working as a shim.  With
no observers attached the instrumentation is skipped entirely.

Crash safety (see :mod:`repro.resilience` and DESIGN.md §"Resilience"):
``fit(..., checkpoint_dir=...)`` writes atomic, checksummed
:class:`~repro.resilience.RunCheckpoint` files every ``checkpoint_every``
steps and at every epoch end; ``resume=True`` continues a killed run
bit-identically (same weights, same metrics) because the checkpoint carries
the optimiser moments, the loader RNG state at epoch start, and every
module-level RNG stream.  If *every* checkpoint on disk fails validation,
``resume=True`` raises instead of silently restarting from scratch.
SIGINT/SIGTERM finish the in-flight step (or the in-flight epoch-end eval),
write a final checkpoint, and raise
:class:`~repro.resilience.TrainingInterrupted`.
``anomaly_guard=True`` adds NaN/Inf/spike detection with rollback to the last
good checkpoint and learning-rate backoff under a bounded retry budget.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..data.batching import Batch, CTRDataset, DataLoader
from ..data.pipeline.loader import PrefetchLoader
from ..models.base import CTRModel
from ..nn import Adam, clip_grad_norm, get_backend
from ..serving.forward import forward_probabilities
from ..obs import (
    AnomalyDetectedEvent,
    BatchEndEvent,
    CheckpointRestoredEvent,
    CheckpointWrittenEvent,
    EpochStartEvent,
    EvalEndEvent,
    MetricRegistry,
    ObserverList,
    PhaseTimings,
    RunEndEvent,
    RunStartEvent,
    collect,
    phase,
)
from ..resilience import (
    AnomalyGuard,
    AnomalySignal,
    CheckpointCorruptError,
    CheckpointStore,
    GracefulInterrupt,
    RunCheckpoint,
    TrainingInterrupted,
    named_rng_states,
    restore_rng_states,
    rng_state,
    set_rng_state,
)
from .metrics import EvalResult, auc_score, logloss_score

__all__ = ["TrainConfig", "TrainResult", "Trainer", "RunState", "evaluate",
           "compute_gradients", "apply_gradients"]

BatchCallback = Callable[[CTRModel, Batch, int], None]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 10
    batch_size: int = 128
    eval_batch_size: int = 512  # memory granularity of eval forwards
    learning_rate: float = 1e-2
    weight_decay: float = 1e-5
    patience: int = 3          # early stopping on validation AUC
    grad_clip: float = 10.0
    seed: int = 0
    num_workers: int = 0       # 0 = in-line batch assembly (DataLoader)
    prefetch_depth: int = 2    # batches per worker window when prefetching

    def __post_init__(self):
        # Bad CLI input must fail here, at construction, not mid-run.
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be finite and positive, "
                f"got {self.learning_rate!r}")
        if not math.isfinite(self.grad_clip) or self.grad_clip <= 0:
            raise ValueError(
                f"grad_clip must be finite and positive, got {self.grad_clip!r}")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError(
                f"weight_decay must be finite and non-negative, "
                f"got {self.weight_decay!r}")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    best_epoch: int
    validation: EvalResult
    history: list[EvalResult] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    #: JSON-safe telemetry snapshots; populated only when observers were
    #: attached to the run (metric registry dump and per-phase timings).
    metrics: dict | None = None
    timings: dict | None = None


def evaluate(model: CTRModel, dataset: CTRDataset, batch_size: int = 512) -> EvalResult:
    """AUC/Logloss of ``model`` on ``dataset`` in eval mode.

    ``batch_size`` only bounds how many rows are materialised at once; the
    actual forward runs through the fixed-block deterministic path shared
    with the serving subsystem, so metrics are bit-identical for any choice
    of ``batch_size`` (and to online scores of the same rows).
    """
    if len(dataset) == 0:
        raise ValueError(
            f"cannot evaluate on an empty split of dataset "
            f"{dataset.schema.name!r}: it contains no samples")
    was_training = model.training
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    probs = np.concatenate([forward_probabilities(model, batch)
                            for batch in loader])
    if was_training:
        model.train()
    return EvalResult(auc=auc_score(dataset.labels, probs),
                      logloss=logloss_score(dataset.labels, probs))


#: Placeholder optimizer state checkpointed by loops that hold no optimizer
#: (distributed ranks != 0: the one real optimizer lives on rank 0).
_NO_OPTIMIZER = {"kind": "none", "lr": 0.0, "weight_decay": 0.0, "arrays": {}}


class RunState:
    """Mutable loop state of one training run — exactly what a
    :class:`RunCheckpoint` serialises, plus the live loader RNG.

    Shared by every loop: :class:`Trainer`, the distributed ranks and
    emulator, and the streaming ``IncrementalTrainer`` (window index in
    ``epoch``).
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.epoch = 0
        self.batches_done = 0          # batches completed in current epoch
        self.epoch_rng_state = rng_state(rng)  # loader RNG at epoch start
        self.step = 0
        self.best_auc = -np.inf
        self.best_state: dict[str, np.ndarray] | None = None
        self.best_epoch = -1
        self.bad_epochs = 0
        self.history: list[EvalResult] = []
        self.losses: list[float] = []
        self.epoch_loss = 0.0
        self.num_batches = 0
        self.component_sums: dict[str, float] = {}
        self.epochs_run = 0
        self.completed = False

    def begin_epoch(self) -> int:
        """Enter the epoch; returns how many batches to skip.  Mid-epoch
        (after a resume or rollback) the loader RNG rewinds to the epoch
        start, so the permutation replays and trained batches are skipped."""
        skip = self.batches_done
        if skip == 0:
            self.epoch_rng_state = rng_state(self.rng)
            self.epoch_loss = 0.0
            self.num_batches = 0
            self.component_sums = {}
        else:
            set_rng_state(self.rng, self.epoch_rng_state)
        self.epochs_run = self.epoch + 1
        return skip

    def count_step(self, loss: float) -> None:
        """Account one completed optimizer step with (reduced) loss ``loss``."""
        self.epoch_loss += loss
        self.num_batches += 1
        self.step += 1
        self.batches_done += 1

    def select(self, model, auc: float) -> bool:
        """Epoch-end selection: only a *finite* AUC strictly above the best
        improves, so a NaN epoch never silently wins (``NaN > x`` is always
        false) and an all-NaN run is rejected by :meth:`finish`."""
        improved = bool(np.isfinite(auc) and auc > self.best_auc)
        if improved:
            self.best_auc = auc
            self.best_state = model.state_dict()
            self.best_epoch = self.epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return improved

    def advance(self) -> None:
        """Move to the next epoch."""
        self.epoch += 1
        self.batches_done = 0
        # The finished epoch's permutation has already been drawn from the
        # loader RNG, so the state *now* is what the next epoch consumes.
        # Refresh the capture before the epoch-end checkpoint — a resume
        # from a stale capture would replay the finished epoch's
        # permutation and diverge from the uninterrupted run.
        self.epoch_rng_state = rng_state(self.rng)

    def finished(self, config: TrainConfig) -> bool:
        """Epoch budget spent or patience exhausted."""
        return (self.epoch >= config.epochs
                or self.bad_epochs >= config.patience)

    def finish(self, model) -> None:
        """Load the best epoch's weights into ``model``; mark the run done."""
        if self.best_state is None:
            raise RuntimeError(
                "training never produced a finite validation AUC "
                f"({self.epochs_run} epoch(s), "
                f"last={self.history[-1].auc!r}); "
                "refusing to silently select the final weights")
        model.load_state_dict(self.best_state)
        self.completed = True

    def capture(self, model, optimizer, config: dict,
                anomaly_retries: int = 0) -> RunCheckpoint:
        """Snapshot the run; ``optimizer=None`` stores a placeholder."""
        return RunCheckpoint(
            model_state=model.state_dict(),
            optimizer_state=(optimizer.state_dict() if optimizer is not None
                             else dict(_NO_OPTIMIZER)),
            loader_rng_state=self.epoch_rng_state,
            module_rng_states=named_rng_states(model),
            epoch=self.epoch,
            batches_done=self.batches_done,
            step=self.step,
            best_auc=float(self.best_auc),
            best_epoch=self.best_epoch,
            bad_epochs=self.bad_epochs,
            best_state=({k: v.copy() for k, v in self.best_state.items()}
                        if self.best_state is not None else None),
            history=[{"auc": float(r.auc), "logloss": float(r.logloss)}
                     for r in self.history],
            train_losses=list(self.losses),
            epoch_loss=self.epoch_loss,
            num_batches=self.num_batches,
            component_sums=dict(self.component_sums),
            epochs_run=self.epochs_run,
            anomaly_retries=anomaly_retries,
            config=config,
            completed=self.completed,
        )

    def restore(self, ckpt: RunCheckpoint, model, optimizer) -> None:
        """Load ``ckpt`` into the run; ``optimizer=None`` skips the moments."""
        model.load_state_dict(ckpt.model_state)
        if optimizer is not None:
            optimizer.load_state_dict(ckpt.optimizer_state)
        restore_rng_states(model, ckpt.module_rng_states)
        set_rng_state(self.rng, ckpt.loader_rng_state)
        self.epoch_rng_state = ckpt.loader_rng_state
        self.epoch = ckpt.epoch
        self.batches_done = ckpt.batches_done
        self.step = ckpt.step
        self.best_auc = ckpt.best_auc
        self.best_epoch = ckpt.best_epoch
        self.bad_epochs = ckpt.bad_epochs
        self.best_state = ({k: v.copy() for k, v in ckpt.best_state.items()}
                           if ckpt.best_state is not None else None)
        self.history = [EvalResult(auc=row["auc"], logloss=row["logloss"])
                        for row in ckpt.history]
        self.losses = list(ckpt.train_losses)
        self.epoch_loss = ckpt.epoch_loss
        self.num_batches = ckpt.num_batches
        self.component_sums = dict(ckpt.component_sums)
        self.epochs_run = ckpt.epochs_run
        self.completed = ckpt.completed

    def resume(self, store: CheckpointStore, model, optimizer, guard):
        """Restore the newest valid checkpoint in ``store`` and ``guard``'s
        retry count; returns ``store.load_latest()``.

        Raises :class:`CheckpointCorruptError` if *every* checkpoint fails
        validation: restarting from scratch would silently discard the run
        and overwrite the corrupt-but-diagnostic files.
        """
        ckpt, path, skipped = store.load_latest()
        if ckpt is None and skipped:
            reasons = "; ".join(f"{p}: {why}" for p, why in skipped)
            raise CheckpointCorruptError(
                f"resuming, but no checkpoint in {store.directory} passed "
                f"validation; refusing to silently restart from scratch "
                f"({reasons})")
        if ckpt is not None:
            self.restore(ckpt, model, optimizer)
            if guard is not None:
                guard.retries = ckpt.anomaly_retries
        return ckpt, path, skipped


def _check(kind: str | None, value: float, state: RunState) -> None:
    if kind is not None:
        raise AnomalySignal(kind, value, state.step + 1, state.epoch)


def compute_gradients(loss_fn, batch, parameters, guard=None,
                      state: RunState | None = None) -> float:
    """Local half of a training step: zero grads, loss, check, backward.

    Returns the loss value.  The loss is checked *before* ``backward`` so a
    NaN never reaches the weights.  Distributed ranks reduce the gradients
    between this and :func:`apply_gradients`.
    """
    for p in parameters:
        p.grad = None
    with phase("train.forward"):
        loss = loss_fn(batch)
    value = loss.item()
    if guard is not None:
        _check(guard.check_loss(value), value, state)
    with phase("train.backward"):
        loss.backward()
    return value


def apply_gradients(optimizer, grad_clip: float, loss: float | None = None,
                    guard=None, state: RunState | None = None) -> float:
    """Update half of a training step: clip, check, step, record.

    Returns the pre-clip grad norm, checked *before* the update applies.
    """
    with phase("train.optim"):
        grad_norm = clip_grad_norm(optimizer.parameters, grad_clip)
        if guard is not None:
            _check(guard.check_grad_norm(grad_norm), grad_norm, state)
        optimizer.step()
    if guard is not None:
        guard.record(loss)
    return grad_norm


class Trainer:
    """Trains any :class:`CTRModel` via its ``training_loss`` hook.

    The same trainer drives plain baselines, MISS-enhanced models, and the
    SSL baselines — they only differ in what ``training_loss`` returns.
    """

    def __init__(self, config: TrainConfig):
        self.config = config

    # ``train`` may be any ``__len__`` + ``batch(indices)`` dataset — the
    # in-memory CTRDataset or a pipeline ShardedCTRDataset (duck-typed).
    def fit(self, model: CTRModel, train, validation: CTRDataset,
            on_batch_end: BatchCallback | None = None,
            observers=None, *,
            checkpoint_dir: str | Path | None = None,
            resume: bool = False,
            checkpoint_every: int | None = None,
            keep_checkpoints: int = 3,
            anomaly_guard=None,
            handle_signals: bool | None = None) -> TrainResult:
        cfg = self.config
        obs = ObserverList.build(observers, on_batch_end)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        store = (CheckpointStore(checkpoint_dir, keep_last=keep_checkpoints)
                 if checkpoint_dir is not None else None)
        if resume and store is None:
            raise ValueError("resume=True requires checkpoint_dir")
        guard = AnomalyGuard.build(anomaly_guard)
        if handle_signals is None:
            handle_signals = store is not None

        rng = np.random.default_rng(cfg.seed)
        if cfg.num_workers > 0:
            # Same RNG stream, same epoch order — the prefetch loader's
            # determinism contract (DESIGN.md §11) keeps resume bit-identical
            # at any worker count.
            loader = PrefetchLoader(train, batch_size=cfg.batch_size,
                                    shuffle=True, rng=rng,
                                    num_workers=cfg.num_workers,
                                    prefetch_depth=cfg.prefetch_depth)
        else:
            loader = DataLoader(train, batch_size=cfg.batch_size, shuffle=True,
                                rng=rng)
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate,
                         weight_decay=cfg.weight_decay)
        state = RunState(rng)

        if resume:
            ckpt, path, skipped = state.resume(store, model, optimizer, guard)
            if ckpt is not None:
                obs.on_checkpoint_restored(CheckpointRestoredEvent(
                    step=ckpt.step, epoch=ckpt.epoch, reason="resume",
                    path=str(path),
                    skipped=[str(p) for p, _ in skipped] or None))
                if ckpt.completed:
                    # The run already finished; the checkpointed model state
                    # is the best-epoch weights, so just report the result.
                    return TrainResult(
                        best_epoch=state.best_epoch,
                        validation=state.history[state.best_epoch],
                        history=state.history, train_losses=state.losses)

        # Instrumentation is armed only when someone is listening, so a bare
        # ``fit()`` pays nothing for the telemetry layer.
        instrument = bool(obs)
        registry = MetricRegistry() if instrument else None
        timings = PhaseTimings(registry=registry) if instrument else None
        if instrument:
            # Pipeline telemetry (queue-depth gauge, shard-cache counters,
            # shard_loaded events) when the loader/dataset support it; the
            # loader forwards the binding to its dataset.
            for target in (loader, train):
                bind = getattr(target, "bind_telemetry", None)
                if bind is not None:
                    bind(registry=registry, observers=obs)
                    break
        run_start = time.perf_counter()
        if instrument:
            obs.on_run_start(RunStartEvent(
                model=type(model).__name__, num_train=len(train),
                num_validation=len(validation),
                config={**asdict(cfg), "backend": get_backend().name}))

        model.train()
        interrupt = GracefulInterrupt() if handle_signals else None
        with (interrupt if interrupt is not None else nullcontext()):
            if guard is not None and guard.last_good is None:
                # Arm rollback from step one: snapshot the initial state.
                guard.snapshot(state.capture(model, optimizer, asdict(cfg),
                                             guard.retries))
            while True:
                try:
                    self._train_epochs(model, loader, validation, optimizer,
                                       state, obs, instrument, registry,
                                       timings, store, guard,
                                       checkpoint_every, interrupt)
                    break
                except AnomalySignal as signal_:
                    lr = optimizer.lr
                    try:
                        ckpt = guard.rollback(signal_, state, model, optimizer)
                    finally:
                        # Narrated whether or not the budget allows a retry.
                        obs.on_anomaly_detected(AnomalyDetectedEvent(
                            step=signal_.step, epoch=signal_.epoch,
                            anomaly=signal_.kind, value=signal_.value, lr=lr,
                            retries=guard.retries,
                            retries_remaining=guard.retries_remaining))
                    obs.on_checkpoint_restored(CheckpointRestoredEvent(
                        step=ckpt.step, epoch=ckpt.epoch, reason="rollback",
                        path=(str(guard.last_good_path)
                              if guard.last_good_path is not None else None)))

        state.finish(model)
        if store is not None:
            # Final checkpoint: model holds the best-epoch weights and the
            # run is flagged complete, so a later --resume is a no-op.
            self._write_checkpoint(model, optimizer, state, store, guard, obs,
                                   is_best=True)
        telemetry_metrics = registry.snapshot() if instrument else None
        telemetry_timings = timings.snapshot() if instrument else None
        if instrument:
            obs.on_run_end(RunEndEvent(
                best_epoch=state.best_epoch, epochs_run=state.epochs_run,
                steps=state.step,
                wall_time_s=time.perf_counter() - run_start,
                timings=telemetry_timings, metrics=telemetry_metrics))
        return TrainResult(best_epoch=state.best_epoch,
                           validation=state.history[state.best_epoch],
                           history=state.history, train_losses=state.losses,
                           metrics=telemetry_metrics,
                           timings=telemetry_timings)

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _train_epochs(self, model, loader, validation, optimizer,
                      state: RunState, obs, instrument, registry, timings,
                      store, guard, checkpoint_every, interrupt) -> None:
        cfg = self.config
        while not state.finished(cfg):
            epoch = state.epoch
            skip = state.begin_epoch()
            if skip == 0 and instrument:
                obs.on_epoch_start(EpochStartEvent(epoch=epoch))
            with collect(timings) if instrument else nullcontext():
                for batch in loader.iter_batches(skip=skip):
                    self._train_step(model, batch, optimizer, state, obs,
                                     instrument, registry, guard)
                    if (checkpoint_every
                            and state.step % checkpoint_every == 0):
                        self._write_checkpoint(model, optimizer, state,
                                               store, guard, obs)
                    if interrupt is not None and interrupt.requested:
                        path = (self._write_checkpoint(
                                    model, optimizer, state, store, guard,
                                    obs) if store is not None else None)
                        raise TrainingInterrupted(
                            signum=interrupt.signum, step=state.step,
                            checkpoint=path)
                with phase("train.eval"):
                    result = evaluate(model, validation,
                                      batch_size=cfg.eval_batch_size)
            state.losses.append(state.epoch_loss / max(state.num_batches, 1))
            state.history.append(result)
            if instrument:
                means = ({name: total / max(state.num_batches, 1)
                          for name, total in state.component_sums.items()}
                         or None)
                obs.on_eval_end(EvalEndEvent(
                    epoch=epoch, split="validation", auc=result.auc,
                    logloss=result.logloss, train_loss=state.losses[-1],
                    loss_components=means))

            improved = state.select(model, result.auc)
            state.advance()
            path = None
            if store is not None or guard is not None:
                path = self._write_checkpoint(model, optimizer, state, store,
                                              guard, obs, is_best=improved)
            # A signal that landed during eval or the checkpoint write above
            # must not wait for the next epoch's first step — on the final
            # epoch there is none and the interrupt would be dropped.  The
            # epoch-end checkpoint has already made the stop durable.
            if interrupt is not None and interrupt.requested:
                raise TrainingInterrupted(signum=interrupt.signum,
                                          step=state.step, checkpoint=path)

    def _train_step(self, model, batch, optimizer, state: RunState, obs,
                    instrument, registry, guard) -> None:
        loss = compute_gradients(model.training_loss, batch,
                                 optimizer.parameters, guard, state)
        grad_norm = apply_gradients(optimizer, self.config.grad_clip, loss,
                                    guard, state)
        state.count_step(loss)
        if instrument:
            components = getattr(model, "last_loss_components", None)
            self._record_step(registry, loss, grad_norm, components)
            if components:
                for name, value in components.items():
                    state.component_sums[name] = (
                        state.component_sums.get(name, 0.0) + value)
            obs.on_batch_end(BatchEndEvent(
                epoch=state.epoch, step=state.step, loss=loss,
                grad_norm=grad_norm, loss_components=components,
                model=model, batch=batch))

    def _write_checkpoint(self, model, optimizer, state: RunState, store,
                          guard, obs, is_best: bool = False) -> Path | None:
        ckpt = state.capture(model, optimizer, asdict(self.config),
                             guard.retries if guard is not None else 0)
        path = store.save(ckpt, is_best=is_best) if store is not None else None
        if guard is not None:
            guard.snapshot(ckpt, path)
        obs.on_checkpoint_written(CheckpointWrittenEvent(
            step=state.step, epoch=state.epoch,
            path=str(path) if path is not None else None,
            is_best=is_best, completed=state.completed))
        return path

    @staticmethod
    def _record_step(registry: MetricRegistry, loss: float, grad_norm: float,
                     components: dict[str, float] | None) -> None:
        registry.counter("train.steps").inc()
        registry.ema("train.loss.total").update(loss)
        registry.histogram("train.grad_norm").record(grad_norm)
        if components:
            for name, value in components.items():
                registry.ema(f"train.loss.{name}").update(value)