"""Numerical anomaly detection and recovery policy for training runs.

Long CTR runs die in one of three numerical ways: the loss goes NaN/Inf, a
gradient blows up to non-finite, or the loss spikes by orders of magnitude
(usually one step before the NaN).  :class:`AnomalyGuard` watches all three.
When one fires, :meth:`AnomalyGuard.rollback` (shared by ``Trainer`` and
``IncrementalTrainer``) restores the last good checkpoint and multiplies the
learning rate by ``backoff_factor``, and the loop retries — up to
``max_retries`` times across the run before :class:`NumericalAnomalyError`.
The Trainer narrates every detection and rollback on the ``repro.obs`` event
bus (``anomaly_detected`` / ``checkpoint_restored``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .checkpoint import RunCheckpoint

__all__ = ["AnomalyGuardConfig", "AnomalyGuard", "AnomalySignal",
           "NumericalAnomalyError"]


class NumericalAnomalyError(RuntimeError):
    """Raised when the anomaly retry budget is exhausted."""


class AnomalySignal(Exception):
    """Internal control-flow signal: a training step hit an anomaly.

    Raised by the shared training step *before* the optimiser applies a bad
    update; the loop that owns the guard catches it and calls
    :meth:`AnomalyGuard.rollback`.
    """

    def __init__(self, kind: str, value: float, step: int, epoch: int):
        super().__init__(f"{kind} at step {step} (value={value!r})")
        self.kind = kind
        self.value = value
        self.step = step
        self.epoch = epoch


@dataclass(frozen=True)
class AnomalyGuardConfig:
    """Policy knobs for :class:`AnomalyGuard`."""

    #: Total anomalies tolerated per run before raising.
    max_retries: int = 3
    #: Learning-rate multiplier applied on every rollback.
    backoff_factor: float = 0.5
    #: Loss > ``spike_factor`` × its EMA counts as an anomaly; None disables.
    spike_factor: float | None = 25.0
    #: Steps of EMA warm-up before spike detection arms.
    spike_warmup: int = 20
    #: Also flag non-finite gradient norms (caught before the update applies).
    check_gradients: bool = True
    #: Decay of the loss EMA used by spike detection.
    ema_decay: float = 0.98

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 < self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")
        if self.spike_factor is not None and self.spike_factor <= 1.0:
            raise ValueError("spike_factor must be > 1")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1)")


class AnomalyGuard:
    """Detects numerical anomalies and tracks the rollback target/budget."""

    def __init__(self, config: AnomalyGuardConfig | None = None):
        self.config = config or AnomalyGuardConfig()
        self.retries = 0
        self.last_good: RunCheckpoint | None = None
        self.last_good_path: Path | None = None
        self._ema: float | None = None
        self._steps_seen = 0

    @classmethod
    def build(cls, spec: "AnomalyGuard | AnomalyGuardConfig | bool | None"
              ) -> "AnomalyGuard | None":
        """Normalise the trainer's ``anomaly_guard`` argument."""
        if spec is None or spec is False:
            return None
        if isinstance(spec, AnomalyGuard):
            return spec
        if isinstance(spec, AnomalyGuardConfig):
            return cls(spec)
        if spec is True:
            return cls()
        raise TypeError(f"anomaly_guard must be a bool, AnomalyGuardConfig, "
                        f"or AnomalyGuard, got {type(spec).__name__}")

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def check_loss(self, value: float) -> str | None:
        """Anomaly kind for this loss value, or None if it looks healthy."""
        if not math.isfinite(value):
            return "non_finite_loss"
        cfg = self.config
        if (cfg.spike_factor is not None and self._ema is not None
                and self._steps_seen >= cfg.spike_warmup
                and value > cfg.spike_factor * max(self._ema, 1e-12)):
            return "loss_spike"
        return None

    def check_grad_norm(self, norm: float) -> str | None:
        if self.config.check_gradients and not math.isfinite(norm):
            return "non_finite_grad"
        return None

    def record(self, value: float) -> None:
        """Fold a healthy step's loss into the spike-detection EMA."""
        decay = self.config.ema_decay
        self._ema = value if self._ema is None else (
            decay * self._ema + (1.0 - decay) * value)
        self._steps_seen += 1

    def reset_stats(self) -> None:
        """Forget the EMA after a rollback (the loss scale may shift)."""
        self._ema = None
        self._steps_seen = 0

    # ------------------------------------------------------------------
    # Rollback target
    # ------------------------------------------------------------------
    def snapshot(self, ckpt: RunCheckpoint,
                 path: "Path | str | None" = None) -> None:
        """Remember ``ckpt`` as the rollback target (kept in memory)."""
        self.last_good = ckpt
        self.last_good_path = Path(path) if path is not None else None

    @property
    def retries_remaining(self) -> int:
        return max(self.config.max_retries - self.retries, 0)

    def rollback(self, signal: AnomalySignal, state, model,
                 optimizer) -> RunCheckpoint:
        """Restore ``state`` (a ``RunState``), ``model`` and ``optimizer``
        from :attr:`last_good` with lr backoff; returns that checkpoint.

        Raises :class:`NumericalAnomalyError` once the retry budget is spent.
        """
        self.retries += 1
        if self.retries > self.config.max_retries or self.last_good is None:
            raise NumericalAnomalyError(
                f"{signal.kind} at step {signal.step} "
                f"(value={signal.value!r}); retry budget of "
                f"{self.config.max_retries} exhausted "
                f"(lr reached {optimizer.lr:g})") from signal
        lr_at_failure = optimizer.lr
        ckpt = self.last_good
        state.restore(ckpt, model, optimizer)
        self.retries = max(self.retries, ckpt.anomaly_retries)
        # Back off from the lr in effect when the anomaly hit (not the
        # restored one) so repeated failures keep shrinking the step size.
        optimizer.lr = lr_at_failure * self.config.backoff_factor
        self.reset_stats()
        return ckpt
