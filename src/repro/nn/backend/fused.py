"""The fused backend: optimized kernels for the profiled hot paths.

Five kernel families replace the reference compositions:

* **Windowed convolutions** (MIE horizontal / MIMFE vertical) with the
  optional ReLU: one node instead of ``2·width`` slice/scale/add nodes plus a
  ``relu``.  The forward multiply-accumulates the ``≤ 4`` shifted slices in
  place (the reference order, so the values are bit-equal); the backward is
  one ``einsum`` reduction per offset for the kernel gradient and one scaled
  in-place add per offset for the input gradient — no window copies, BLAS
  call or padding.
* **Embedding backward**: the ``np.add.at`` scatter (notoriously slow —
  element-at-a-time ufunc inner loop) becomes one flat ``np.bincount``
  segment-sum over ``index * K + column`` (the flat index is a pooled
  scratch buffer).
* **Fused linear**: ``relu(x @ w + b)`` runs as one node with in-place bias
  add and ReLU; the backward collapses rank-N inputs to a single pair of
  GEMMs instead of a batched matmul followed by an axis reduction.
* **Stacked InfoNCE** (Eq. 15/16): all ``P`` view pairs of a family in one
  node — L2 normalisation, ``P`` batched ``B×B`` GEMMs and a masked
  log-sum-exp forward; the backward is the closed-form
  ``(softmax − I)/(P·B·τ)`` pushed through the normalisation.
* **Gradient buffers**: first-accumulation allocates from a small per-shape
  buffer pool (``memcpy`` into a recycled buffer instead of
  ``zeros_like`` + add), subsequent accumulations are in-place ``np.add``;
  ``Tensor.backward`` releases interior-node buffers back to the pool.

Everything is float64 and deterministic; agreement with the reference
composition (values and gradients, to round-off) is enforced by the
gradcheck suite.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import ArrayOps, axis_slice

__all__ = ["FusedOps"]


class _BufferPool:
    """Bounded per-(shape, dtype) free-list of gradient buffers.

    Buffers enter via :meth:`release` (from ``Tensor.backward`` clearing
    interior nodes and from ``zero_grad``; kernels also return their scratch
    buffers) and leave via :meth:`acquire`.
    The cap bounds worst-case memory; arrays beyond it are simply dropped
    for the garbage collector.  A lock keeps the free-list consistent if a
    grad-recording forward ever runs off the main thread.
    """

    __slots__ = ("_buffers", "_cap", "_lock", "hits", "misses")

    def __init__(self, cap_per_key: int = 4):
        self._buffers: dict[tuple, list[np.ndarray]] = {}
        self._cap = cap_per_key
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        with self._lock:
            stack = self._buffers.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        return np.empty(shape, dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        if array.base is not None:  # views are never safe to recycle
            return
        key = (array.shape, array.dtype.str)
        with self._lock:
            stack = self._buffers.setdefault(key, [])
            if len(stack) < self._cap:
                stack.append(array)

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()

    def size(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._buffers.values())


class FusedOps(ArrayOps):
    """Optimized kernels + pooled gradient buffers."""

    name = "fused"
    fuses_conv = True
    fuses_embedding = True
    fuses_linear = True
    fuses_l2norm = True
    fuses_infonce = True
    pools_gradients = True
    batches_ssl_views = True

    def __init__(self):
        self.pool = _BufferPool()

    # ------------------------------------------------------------------
    # Gradient accumulation with buffer pooling
    # ------------------------------------------------------------------
    def grad_init(self, grad: np.ndarray, like: np.ndarray) -> np.ndarray:
        out = self.pool.acquire(like.shape, like.dtype)
        np.copyto(out, grad)
        return out

    def grad_add(self, acc: np.ndarray, grad: np.ndarray) -> np.ndarray:
        np.add(acc, grad, out=acc)
        return acc

    def release_grad(self, grad: np.ndarray) -> None:
        self.pool.release(grad)

    def clear_pool(self) -> None:
        self.pool.clear()

    # ------------------------------------------------------------------
    # Windowed convolution: shifted-slice multiply-accumulate (+ReLU)
    # ------------------------------------------------------------------
    def conv_window(self, x: np.ndarray, w: np.ndarray, axis: int,
                    relu: bool) -> np.ndarray:
        n = x.shape[axis] - w.shape[0] + 1
        # Same offset order as the reference composition, so the sum is
        # bit-equal to it.
        out = x[axis_slice(x.ndim, axis, 0, n)] * w[0]
        for m in range(1, w.shape[0]):
            out += x[axis_slice(x.ndim, axis, m, m + n)] * w[m]
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    def conv_window_backward(self, grad: np.ndarray, x: np.ndarray,
                             w: np.ndarray, out: np.ndarray, *, axis: int,
                             relu: bool) -> tuple[np.ndarray, np.ndarray]:
        if relu:
            grad = grad * (out > 0)
        n = grad.shape[axis]
        gw = np.empty(w.shape[0])
        gx = np.empty_like(x)
        gx[axis_slice(x.ndim, axis, n, None)] = 0.0
        np.multiply(grad, w[0], out=gx[axis_slice(x.ndim, axis, 0, n)])
        term = np.empty_like(grad)
        axes = list(range(grad.ndim))
        for m in range(w.shape[0]):
            window = axis_slice(x.ndim, axis, m, m + n)
            # dL/dw[m] = Σ grad · x[m:m+n];  dL/dx[m:m+n] += grad · w[m].
            # einsum reads the strided window in place; np.vdot would copy
            # it and call a threaded BLAS dot, which on a loaded two-core
            # machine intermittently ran the whole backward ~10x slower.
            gw[m] = np.einsum(grad, axes, x[window], axes, [])
            if m:
                np.multiply(grad, w[m], out=term)
                gx[window] += term
        return gx, gw

    # ------------------------------------------------------------------
    # Embedding backward: one flat bincount segment-sum
    # ------------------------------------------------------------------
    def scatter_rows(self, grad: np.ndarray, indices: np.ndarray,
                     num_rows: int) -> np.ndarray:
        n, k = grad.shape
        # The flat index is as large as the gradient; a pooled buffer keeps
        # its allocation (and first-touch page faults) off every call.
        flat = self.pool.acquire((n * k,), np.intp)
        np.add((indices * k)[:, None], np.arange(k), out=flat.reshape(n, k))
        dense = np.bincount(flat, weights=grad.ravel(),
                            minlength=num_rows * k)
        self.pool.release(flat)
        return dense.reshape(num_rows, k)

    # ------------------------------------------------------------------
    # Fused linear (+bias) (+ReLU)
    # ------------------------------------------------------------------
    def linear(self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
               relu: bool) -> np.ndarray:
        out = x @ w
        if b is not None:
            out += b
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    def linear_backward(self, grad: np.ndarray, x: np.ndarray, w: np.ndarray,
                        out: np.ndarray, *, has_bias: bool, relu: bool,
                        need_gx: bool, need_gw: bool,
                        ) -> tuple[np.ndarray | None, np.ndarray | None,
                                   np.ndarray | None]:
        g = grad * (out > 0) if relu else grad
        if x.ndim == 2:
            g2, x2 = g, x
        else:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.reshape(-1, x.shape[-1])
        gx = None
        if need_gx:
            gx = g2 @ w.T
            if x.ndim != 2:
                gx = gx.reshape(x.shape)
        gw = x2.T @ g2 if need_gw else None
        gb = g2.sum(axis=0) if has_bias else None
        return gx, gw, gb

    # ------------------------------------------------------------------
    # Fused L2 normalisation (InfoNCE Eq. 15/16 hot path)
    # ------------------------------------------------------------------
    def l2_normalize(self, x: np.ndarray, axis: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
        norm = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
        return x / (norm + eps), norm

    def l2_normalize_backward(self, grad: np.ndarray, x: np.ndarray,
                              norm: np.ndarray, axis: int,
                              eps: float) -> np.ndarray:
        # Matches the reference composition, including its sqrt-backward
        # clamp: d||x||/dx uses max(||x||, 1e-12) in the denominator.
        scale = norm + eps
        dot = np.sum(grad * x, axis=axis, keepdims=True)
        safe = np.maximum(norm, 1e-12)
        return grad / scale - x * (dot / (scale * scale * safe))

    # ------------------------------------------------------------------
    # Stacked InfoNCE: batched GEMMs + masked log-sum-exp, closed-form bwd
    # ------------------------------------------------------------------
    def info_nce(self, z1: np.ndarray, z2: np.ndarray,
                 drop: np.ndarray | None,
                 temperature: float) -> tuple[float, np.ndarray]:
        logits = np.matmul(z1, z2.swapaxes(-1, -2))
        logits *= 1.0 / temperature
        diagonal = np.diagonal(logits, axis1=-2, axis2=-1).copy()
        if drop is not None:
            # exp(-inf) == 0 exactly, as exp(-1e9) is in the reference.
            np.putmask(logits, drop, -np.inf)
        peak = logits.max(axis=-1, keepdims=True)
        logits -= peak
        softmax = np.exp(logits, out=logits)
        total = softmax.sum(axis=-1, keepdims=True)
        softmax /= total
        loss = np.mean(np.log(total[..., 0]) + peak[..., 0] - diagonal)
        return float(loss), softmax

    def info_nce_backward(self, grad: float, softmax: np.ndarray,
                          z1: np.ndarray, z2: np.ndarray,
                          temperature: float) -> tuple[np.ndarray, np.ndarray]:
        count, batch = softmax.shape[0], softmax.shape[1]
        scale = grad / (count * batch * temperature)
        dlogits = softmax * scale
        index = np.arange(batch)
        dlogits[:, index, index] -= scale
        return (np.matmul(dlogits, z2),
                np.matmul(dlogits.swapaxes(-1, -2), z1))
