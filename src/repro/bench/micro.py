"""Microbenchmarks for the fused ops backend (``repro bench-ops``).

Times each fused kernel family — forward *and* backward — under the
``reference`` and ``fused`` backends on shapes representative of the MISS
benchmark configurations, and reports per-kernel speedups.  The payload is
written as ``BENCH_ops.json`` so CI can archive the numbers next to the
serving load benchmark.

Timings use best-of-N wall time (best, not mean: the minimum is the least
noisy estimator of the achievable time on a shared machine).
"""

from __future__ import annotations

import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.losses import info_nce
from ..nn import MLP, Tensor, get_backend, kernels, use_backend
from ..nn import functional as F
from ..resilience.atomic import atomic_write_json

__all__ = ["KERNEL_NAMES", "run_micro", "render_report"]

#: Kernel benchmarks, in report order.
KERNEL_NAMES = ("mie_mimfe_conv", "embedding_backward", "fused_mlp",
                "l2_normalize", "info_nce")


def _best_ms(fn: Callable[[], None], repeats: int) -> float:
    """Best wall-clock milliseconds for one call of ``fn`` over ``repeats``."""
    fn()  # warm up allocators, BLAS thread pools, and the buffer pool
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _bench_conv(rng: np.random.Generator) -> tuple[Callable[[], None], str]:
    # MIE shape at benchmark scale: (B, J, L, K) with the widest kernel the
    # extractor uses; backward included.
    batch, fields, seq_len, dim, width = 256, 3, 30, 10, 4
    x = Tensor(rng.normal(size=(batch, fields, seq_len, dim)),
               requires_grad=True)
    w = Tensor(rng.normal(size=width), requires_grad=True)
    out_shape = (batch, fields, seq_len - width + 1, dim)
    seed_grad = np.ones(out_shape)

    def run() -> None:
        x.grad = None
        w.grad = None
        out = kernels.conv_window(x, w, axis=2)
        out.backward(seed_grad)

    return run, f"x=({batch},{fields},{seq_len},{dim}) width={width} fwd+bwd"


def _bench_embedding(rng: np.random.Generator
                     ) -> tuple[Callable[[], None], str]:
    # One batch worth of sequential-field lookups: B·J·L gathered rows
    # scattered back into a (V, K) table.
    vocab, dim = 5000, 10
    batch, fields, seq_len = 256, 3, 30
    table = Tensor(rng.normal(size=(vocab, dim)), requires_grad=True)
    indices = rng.integers(0, vocab, size=(batch, fields, seq_len))
    seed_grad = np.ones((batch, fields, seq_len, dim))

    def run() -> None:
        table.grad = None
        out = kernels.embedding_lookup(table, indices)
        out.backward(seed_grad)

    return run, (f"table=({vocab},{dim}) "
                 f"indices=({batch},{fields},{seq_len}) fwd+bwd")


def _bench_mlp(rng: np.random.Generator) -> tuple[Callable[[], None], str]:
    # The SSL view-encoder shape: small layers, large effective batch (all
    # pair views of a batch) — per-node overhead dominates the GEMMs here,
    # which is exactly what the fused linear removes.
    batch, in_features, sizes = 4096, 30, [20, 20]
    mlp = MLP(in_features, sizes, rng, activation="relu",
              output_activation=None)
    x = Tensor(rng.normal(size=(batch, in_features)), requires_grad=True)
    seed_grad = np.ones((batch, sizes[-1]))

    def run() -> None:
        mlp.zero_grad()
        x.grad = None
        out = mlp(x)
        out.backward(seed_grad)

    return run, f"x=({batch},{in_features}) layers={sizes} relu fwd+bwd"


def _bench_l2norm(rng: np.random.Generator) -> tuple[Callable[[], None], str]:
    # InfoNCE normalisation of a full view batch.
    batch, dim = 4096, 20
    x = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
    seed_grad = np.ones((batch, dim))

    def run() -> None:
        x.grad = None
        out = F.l2_normalize(x, axis=-1)
        out.backward(seed_grad)

    return run, f"x=({batch},{dim}) fwd+bwd"


def _bench_info_nce(rng: np.random.Generator
                    ) -> tuple[Callable[[], None], str]:
    # One MISS view family (Eq. 15/16): P pairs of (B, D) encoded views with
    # their false-negative masks.  The fused backend takes the stacked
    # (P, B, D) views as one node; the reference side times the per-pair
    # calls MISS makes on that backend, so slicing a stacked leaf (which
    # MISS never does there) is not charged to it.
    pairs, batch, dim = 8, 128, 20
    x1 = Tensor(rng.normal(size=(pairs, batch, dim)), requires_grad=True)
    x2 = Tensor(rng.normal(size=(pairs, batch, dim)), requires_grad=True)
    masks = rng.random((pairs, batch, batch)) < 0.05
    per_pair = [(Tensor(x1.data[p], requires_grad=True),
                 Tensor(x2.data[p], requires_grad=True))
                for p in range(pairs)]

    def run() -> None:
        if get_backend().fuses_infonce:
            x1.grad = x2.grad = None
            info_nce(x1, x2, 0.1, masks).backward()
            return
        loss = None
        for p, (v1, v2) in enumerate(per_pair):
            v1.grad = v2.grad = None
            term = info_nce(v1, v2, 0.1, masks[p])
            loss = term if loss is None else loss + term
        (loss * (1.0 / pairs)).backward()

    return run, f"P={pairs} B={batch} D={dim} masked fwd+bwd"


_BENCH_BUILDERS = {
    "mie_mimfe_conv": _bench_conv,
    "embedding_backward": _bench_embedding,
    "fused_mlp": _bench_mlp,
    "l2_normalize": _bench_l2norm,
    "info_nce": _bench_info_nce,
}


def run_micro(repeats: int = 20, seed: int = 0,
              out_path: str | Path | None = None) -> dict:
    """Run every kernel microbenchmark under both backends.

    Returns the JSON-safe payload (and writes it atomically to ``out_path``
    when given).  Each kernel entry records per-backend best-of-``repeats``
    milliseconds and the reference/fused speedup.
    """
    kernels_report: dict[str, dict] = {}
    for name in KERNEL_NAMES:
        entry: dict = {}
        for backend in ("reference", "fused"):
            # Fresh arrays per backend so neither run warms the other's
            # caches; same seed so both time identical values.
            run, shape = _BENCH_BUILDERS[name](np.random.default_rng(seed))
            entry["shape"] = shape
            with use_backend(backend):
                entry[f"{backend}_ms"] = _best_ms(run, repeats)
        entry["speedup"] = entry["reference_ms"] / entry["fused_ms"]
        kernels_report[name] = entry

    payload = {
        "schema_version": 1,
        "repeats": repeats,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels_report,
    }
    if out_path is not None:
        atomic_write_json(Path(out_path), payload)
    return payload


def render_report(payload: dict) -> str:
    """Fixed-width table of the ``run_micro`` payload."""
    lines = [f"{'Kernel':<20}{'reference':>12}{'fused':>12}{'speedup':>10}"]
    for name, entry in payload["kernels"].items():
        lines.append(f"{name:<20}{entry['reference_ms']:>10.3f}ms"
                     f"{entry['fused_ms']:>10.3f}ms"
                     f"{entry['speedup']:>9.2f}x")
    return "\n".join(lines)
