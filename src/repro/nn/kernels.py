"""Backend-dispatched autograd kernels for the profiled hot paths.

Each function here is a *seam*: it consults the active
:class:`~repro.nn.backend.ArrayOps` and either

* replays the exact multi-node autograd composition the seed implementation
  used (when the backend does not fuse the kernel) — this path is
  bit-identical to the pre-seam code, gradients included, which is what keeps
  the benchmark cache, serving golden parity, and bit-identical resume
  valid on the ``reference`` backend; or
* records a single fused graph node whose forward and backward call straight
  into the backend's optimized kernel.

Layers (:class:`~repro.nn.layers.Dense`,
:class:`~repro.nn.layers.Embedding`, :mod:`repro.nn.conv`, the attention
projections), :func:`repro.nn.functional.l2_normalize` and
:func:`repro.core.losses.info_nce` route through these functions, so adding
a backend never requires touching the layer definitions again.
"""

from __future__ import annotations

import numpy as np

from .backend import get_backend
from .backend.base import axis_slice
from .tensor import Tensor

__all__ = ["conv_window", "embedding_lookup", "linear_act", "l2_normalize",
           "info_nce"]


def conv_window(x: Tensor, weight: Tensor, axis: int,
                relu: bool = False) -> Tensor:
    """Valid-mode convolution of the 1-D kernel ``weight`` along ``axis``,
    followed by a ReLU when ``relu``.

    This is the workhorse of MIE (``axis=2``, the time axis of
    ``(B, J, L, K)``) and MIMFE (``axis=1``, the field axis).  The output
    length along ``axis`` is ``x.shape[axis] - len(weight) + 1``.
    """
    ops = get_backend()
    width = weight.shape[0]
    out_len = x.shape[axis] - width + 1
    if not ops.fuses_conv:
        # Reference composition: sum of shifted, scaled slices — exactly the
        # seed implementation's graph (same slice keys, same add order).
        result: Tensor | None = None
        for offset in range(width):
            sl = x[axis_slice(x.ndim, axis, offset, offset + out_len)]
            term = sl * weight[offset]
            result = term if result is None else result + term
        return result.relu() if relu else result

    out_data = ops.conv_window(x.data, weight.data, axis, relu)
    x_data, w_data = x.data, weight.data

    def backward(grad: np.ndarray) -> None:
        gx, gw = ops.conv_window_backward(grad, x_data, w_data, out_data,
                                          axis=axis, relu=relu)
        if x.requires_grad:
            x._accumulate(gx)
        if weight.requires_grad:
            weight._accumulate(gw)

    return Tensor._make(out_data, (x, weight), "conv_window", backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with a dense scatter-add backward into ``table``.

    The fused path replaces the reference ``np.add.at`` scatter with a
    single flat ``bincount`` segment-sum and adopts the freshly built dense
    gradient instead of copying it through ``zeros_like``-then-add.
    """
    ops = get_backend()
    indices = np.asarray(indices, dtype=np.int64)
    if not ops.fuses_embedding:
        return table.take(indices, axis=0)

    out_data = np.take(table.data, indices, axis=0)
    num_rows, dim = table.shape

    def backward(grad: np.ndarray) -> None:
        dense = ops.scatter_rows(grad.reshape(-1, dim),
                                 indices.reshape(-1), num_rows)
        if table.grad is None:
            table.grad = dense  # freshly allocated: safe to adopt
        else:
            ops.grad_add(table.grad, dense)

    return Tensor._make(out_data, (table,), "embedding", backward)


def linear_act(x: Tensor, weight: Tensor, bias: Tensor | None = None,
               relu: bool = False) -> Tensor:
    """``relu(x @ weight + bias)`` (ReLU and bias optional).

    Accepts inputs of any rank; the contraction is over the last axis.  The
    fused path is one graph node with an in-place bias add and ReLU, and a
    backward that collapses rank-N inputs into a single pair of GEMMs.
    """
    ops = get_backend()
    if not ops.fuses_linear:
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out.relu() if relu else out

    bias_data = bias.data if bias is not None else None
    out_data = ops.linear(x.data, weight.data, bias_data, relu)
    x_data, w_data = x.data, weight.data

    def backward(grad: np.ndarray) -> None:
        gx, gw, gb = ops.linear_backward(
            grad, x_data, w_data, out_data,
            has_bias=bias is not None and bias.requires_grad, relu=relu,
            need_gx=x.requires_grad, need_gw=weight.requires_grad)
        if gx is not None:
            x._accumulate(gx)
        if gw is not None:
            weight._accumulate(gw)
        if gb is not None:
            bias._accumulate(gb)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, "linear_act", backward)


def l2_normalize(x: Tensor, axis: int, eps: float) -> Tensor:
    """``x / (||x||_2 + eps)`` along ``axis`` (the InfoNCE normaliser)."""
    ops = get_backend()
    if not ops.fuses_l2norm:
        norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
        return x / (norm + eps)

    out_data, norm = ops.l2_normalize(x.data, axis, eps)
    x_data = x.data

    def backward(grad: np.ndarray) -> None:
        x._accumulate(ops.l2_normalize_backward(grad, x_data, norm, axis,
                                                eps))

    return Tensor._make(out_data, (x,), "l2_normalize", backward)


def _info_nce_pair(view1: Tensor, view2: Tensor, temperature: float,
                   drop: np.ndarray | None, eps: float) -> Tensor:
    """Reference InfoNCE of one ``(B, D)`` pair — the seed composition."""
    z1 = l2_normalize(view1, -1, eps)
    z2 = l2_normalize(view2, -1, eps)
    logits = (z1 @ z2.swapaxes(0, 1)) * (1.0 / temperature)  # (B, B)
    if drop is not None:
        logits = logits + Tensor(np.where(drop, -1e9, 0.0))
    # log-sum-exp over each row, numerically stabilised.
    shifted = logits - Tensor(logits.data.max(axis=1, keepdims=True))
    log_denominator = (shifted.exp().sum(axis=1, keepdims=True)).log() \
        + Tensor(logits.data.max(axis=1, keepdims=True))
    index = np.arange(view1.shape[0])
    diagonal = logits[index, index]
    return (log_denominator.squeeze(-1) - diagonal).mean()


def info_nce(view1: Tensor, view2: Tensor, temperature: float,
             drop: np.ndarray | None, eps: float) -> Tensor:
    """Mean InfoNCE over ``(B, D)`` or stacked ``(P, B, D)`` view pairs.

    ``drop`` masks logits out of the denominators; it has the logits' shape
    and a False diagonal.  Unfused, each pair is the seed composition and
    the pair losses are summed in order, then scaled by ``1/P``.  Fused, it
    is one node: normalise, ``P`` batched GEMMs, masked log-sum-exp.
    """
    ops = get_backend()
    if not ops.fuses_infonce:
        if view1.ndim == 2:
            return _info_nce_pair(view1, view2, temperature, drop, eps)
        loss: Tensor | None = None
        for p in range(view1.shape[0]):
            term = _info_nce_pair(view1[p], view2[p], temperature,
                                  None if drop is None else drop[p], eps)
            loss = term if loss is None else loss + term
        return loss * (1.0 / view1.shape[0])

    stacked = (-1,) + view1.shape[-2:]
    x1, x2 = view1.data.reshape(stacked), view2.data.reshape(stacked)
    z1, norm1 = ops.l2_normalize(x1, -1, eps)
    z2, norm2 = ops.l2_normalize(x2, -1, eps)
    if drop is not None:
        drop = drop.reshape((-1,) + drop.shape[-2:])
    loss, softmax = ops.info_nce(z1, z2, drop, temperature)

    def backward(grad: np.ndarray) -> None:
        g1, g2 = ops.info_nce_backward(float(grad), softmax, z1, z2,
                                       temperature)
        if view1.requires_grad:
            view1._accumulate(ops.l2_normalize_backward(
                g1, x1, norm1, -1, eps).reshape(view1.shape))
        if view2.requires_grad:
            view2._accumulate(ops.l2_normalize_backward(
                g2, x2, norm2, -1, eps).reshape(view2.shape))

    return Tensor._make(np.array(loss), (view1, view2), "info_nce", backward)
