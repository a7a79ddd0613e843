"""InfoNCE contrastive loss with in-batch negatives (Eq. 15-16).

For a batch of paired views ``⟨z^1_x, z^2_x⟩`` the positive is the pair from
the same sample and the negatives are the second views of every *other*
sample in the batch.  Similarity is cosine, scaled by temperature τ.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, kernels
from ..nn.functional import _EPS

__all__ = ["info_nce"]


def info_nce(view1: Tensor, view2: Tensor, temperature: float,
             false_negatives: np.ndarray | None = None) -> Tensor:
    """Mean InfoNCE loss over the batch (and over the pairs, if stacked).

    Args:
        view1: ``(B, D)`` encoded first views, or ``(P, B, D)`` for ``P``
            view pairs of the same batch.
        view2: Encoded second views, same shape as ``view1``.
        temperature: The softmax temperature τ (> 0).
        false_negatives: Optional ``(B, B)`` (or ``(P, B, B)``) boolean
            mask; ``[i, j]`` True removes sample ``j``'s second view from
            sample ``i``'s negative set.  Both MISS losses pass one: the
            interest-level mask drops id-identical behaviour windows, and
            the feature-level mask matters most, because low-cardinality
            fields (a handful of category ids) make id-identical
            "negatives" frequent — repelling those would scramble the small
            embedding table (the SupCon de-duplication fix).  The diagonal
            (the positive) is always kept.

    Returns:
        Scalar tensor; lower is better, bounded below by 0 as the positive
        pair dominates all in-batch negatives.  Stacked pairs give the mean
        of the ``P`` pair losses.
    """
    if view1.shape != view2.shape:
        raise ValueError(f"view shapes differ: {view1.shape} vs {view2.shape}")
    if view1.ndim not in (2, 3):
        raise ValueError(f"expected (B, D) or (P, B, D) views, got {view1.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")

    drop = None
    if false_negatives is not None:
        batch = view1.shape[-2]
        if false_negatives.shape != view1.shape[:-1] + (batch,):
            raise ValueError("false_negatives mask must be (B, B), "
                             "or (P, B, B) for stacked views")
        drop = np.array(false_negatives, dtype=bool)
        index = np.arange(batch)
        drop[..., index, index] = False  # never drop the positive
    return kernels.info_nce(view1, view2, temperature, drop, _EPS)
