"""The allreduce math, shared verbatim by process mode and the emulator.

Floating-point addition is not associative, so *which tree* the per-rank
contributions are summed over is part of the numeric contract.  Everything
here reduces with :func:`pairwise_fold` — a fixed balanced fold over the
rank index (adjacent pairs per level, odd tail passed through) — and then
divides by the world size.  Because process mode (rank 0 folding shared
-memory slots) and the single-process emulator (folding locally computed
copies) call the *same* functions on bitwise-identical float64 inputs, a
W-rank trajectory is a pure function of ``(seed, W)``: the number of OS
processes executing it can never change a single bit.  That invariant is
what ``scripts/distributed_smoke.py`` and ``bench-distributed``'s
``bit_identity`` block assert.
"""

from __future__ import annotations

import numpy as np

from ..nn.optim import Optimizer
from ..training.trainer import apply_gradients
from .shm import FlatLayout

__all__ = ["pairwise_fold", "reduce_mean", "apply_update", "rank_rng",
           "steps_per_epoch"]


def pairwise_fold(parts):
    """Sum ``parts`` over a fixed balanced binary tree.

    The tree depends only on ``len(parts)``: level by level, element ``2i``
    is added to ``2i+1`` and an odd tail passes through unchanged.  Works
    for float scalars and ndarrays alike; never mutates its inputs (a
    single-element fold returns a copy for arrays, so callers may scale the
    result in place even when the input aliases shared memory).
    """
    items = list(parts)
    if not items:
        raise ValueError("nothing to fold")
    if len(items) == 1:
        only = items[0]
        return only.copy() if isinstance(only, np.ndarray) else only
    while len(items) > 1:
        folded = [items[i] + items[i + 1]
                  for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            folded.append(items[-1])
        items = folded
    return items[0]


def reduce_mean(parts):
    """Mean over ranks: :func:`pairwise_fold` then one division."""
    return pairwise_fold(parts) / len(parts)


def apply_update(optimizer: Optimizer, layout: FlatLayout,
                 grad_parts, grad_clip: float) -> float:
    """One allreduce'd optimizer step; returns the pre-clip grad norm.

    ``grad_parts`` are the per-rank flat gradient vectors (shared-memory
    slots in process mode, local copies in emulation).  The reduced mean is
    scattered onto the parameters as gradient views, then clipped and
    stepped by :func:`~repro.training.trainer.apply_gradients` — the same
    update half every single-process loop runs after ``backward()``, so a
    ``world_size=1`` reduction reproduces single-process training to the
    bit.
    """
    reduced = reduce_mean(grad_parts)
    layout.scatter_grads(reduced, optimizer.parameters)
    return apply_gradients(optimizer, grad_clip)


def rank_rng(seed: int, rank: int) -> np.random.Generator:
    """Rank ``rank``'s data-order generator: a deterministic function of
    ``(seed, rank)`` via ``SeedSequence`` spawn keys, so every execution
    mode (N processes, emulation, resume) rebuilds the identical stream."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(rank),)))


def steps_per_epoch(partition_rows, batch_size: int) -> int:
    """Lockstep step count: ``min_r(rows_r // batch_size)``.

    Every rank must reach every barrier the same number of times, so the
    epoch is cut to the smallest partition's full-batch count and each
    rank's ragged tail is dropped (the shuffled permutation rotates which
    rows fall in the tail, so all rows are still seen across epochs).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    steps = min(int(rows) // int(batch_size) for rows in partition_rows)
    if steps < 1:
        smallest = min(int(rows) for rows in partition_rows)
        raise ValueError(
            f"smallest shard partition holds {smallest} rows — fewer than "
            f"one batch of {batch_size}; use more rows, smaller batches, "
            f"or fewer workers")
    return steps
