"""The random view-selection functions RS^i(·) and RS^if(·) (paper §V-B, §V-D).

Interest-level augmentation (Eq. 21) exploits the closeness assumption: two
interest representations produced by the *same* convolution branch at time
distance ``h ∈ [1, H]`` are treated as two views of one interest.  Uniformly
sampled ``h`` covers both short-range (h=1) and long-range (h→H) dependencies.

Feature-level augmentation (Eq. 24) samples, within one ``Ĝ_{m,n}`` and one
time position, two field rows as views — the paper's "totally random select"
over the (independent) feature axis.

Selection is *per sample*: every row of the batch draws its own time
position, so one pair already covers B distinct sequence locations.
Histories are front-padded, so when the batch validity mask is supplied each
row's positions are confined to windows that never touch its padding.

Each sample records which window (fields × time span) produced its views, so
the loss layer can identify id-identical "negatives" across the batch and
exclude them from the InfoNCE denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor, gather_per_sample
from .distances import sample_distance

__all__ = ["InterestViewSample", "FeatureViewSample",
           "sample_interest_pairs", "sample_feature_pairs"]


@dataclass
class InterestViewSample:
    """One RS^i draw: views ``(B, J·K)`` plus their window coordinates."""

    view1: Tensor
    view2: Tensor
    left: np.ndarray      # (B,) start column of view1's window
    right: np.ndarray     # (B,) start column of view2's window
    width: int            # kernel width m (window covers [l, l+m-1])

    @property
    def pair(self) -> tuple[Tensor, Tensor]:
        return self.view1, self.view2


@dataclass
class FeatureViewSample:
    """One RS^if draw: views ``(B, K)`` plus window and field coordinates."""

    view1: Tensor
    view2: Tensor
    row1: int             # first field row index (covers [row, row+n-1])
    row2: int
    positions: np.ndarray  # (B,) start column shared by both views
    width: int            # horizontal kernel width m
    height: int           # vertical kernel height n

    @property
    def pair(self) -> tuple[Tensor, Tensor]:
        return self.view1, self.view2


def _per_sample_starts(mask: np.ndarray | None, batch: int,
                       out_len: int) -> np.ndarray:
    """First valid map position per sample for a kernel of this output size.

    Padding is a prefix, so sample ``b``'s valid window starts are
    ``[first_valid_b, out_len - 1]``; rows with no valid window fall back to
    position 0 (their views are padding embeddings — harmless noise).
    """
    if mask is None:
        return np.zeros(batch, dtype=np.int64)
    first_valid = np.where(mask.any(axis=1), mask.argmax(axis=1), 0)
    return np.minimum(first_valid, out_len - 1).astype(np.int64)


def _gather_views(g: Tensor, positions: np.ndarray) -> Tensor:
    """Per-sample time gather: ``(B, J, L', K)`` + ``(B,)`` → ``(B, J·K)``."""
    return gather_per_sample(g, slice(None), positions).flatten_from(1)


def sample_interest_pairs(interest_maps: list[Tensor], num_pairs: int,
                          max_distance: int, rng: np.random.Generator,
                          mask: np.ndarray | None = None,
                          seq_len: int | None = None,
                          distribution: str = "uniform"
                          ) -> list[InterestViewSample]:
    """RS^i: ``num_pairs`` view pairs ⟨t_l, t_{l+h}⟩ from random branches.

    Each view is the flattened ``(B, J·K)`` interest representation
    ``Flat(G_m[:, :, l, :])`` of Eq. 20.  The distance ``h`` is drawn
    uniformly from ``[1, H]`` per pair; rows whose valid window is shorter
    than ``h`` use the largest distance they can accommodate.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    if not interest_maps:
        raise ValueError("no interest maps to sample from")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        seq_len = mask.shape[1]

    samples: list[InterestViewSample] = []
    for _ in range(num_pairs):
        g = interest_maps[int(rng.integers(len(interest_maps)))]
        batch, _, out_len, _ = g.shape
        width = (seq_len - out_len + 1) if seq_len is not None else 1
        starts = _per_sample_starts(mask, batch, out_len)
        span = out_len - 1 - starts  # max distance available per sample
        h = sample_distance(distribution, max_distance, rng)
        h_eff = np.minimum(h, np.maximum(span, 0))
        slack = out_len - 1 - starts - h_eff
        offsets = (rng.random(batch) * (slack + 1)).astype(np.int64)
        left = starts + offsets
        right = left + h_eff
        samples.append(InterestViewSample(
            view1=_gather_views(g, left), view2=_gather_views(g, right),
            left=left, right=right, width=width))
    return samples


def sample_feature_pairs(fine_maps: list[Tensor], num_pairs: int,
                         rng: np.random.Generator,
                         mask: np.ndarray | None = None,
                         seq_len: int | None = None,
                         num_fields: int | None = None
                         ) -> list[FeatureViewSample]:
    """RS^if: ``num_pairs`` pairs of ``(B, K)`` feature-level views.

    Both views come from the same ``Ĝ_{m,n}`` and, per sample, the same time
    position (hence the same interest) but two random field rows, exposing
    the intra-item correlation between item attributes.  With a single field
    row the views coincide, which still regularises via the encoder noise.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    if not fine_maps:
        raise ValueError("no fine-grained maps to sample from")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        seq_len = mask.shape[1]

    samples: list[FeatureViewSample] = []
    for _ in range(num_pairs):
        g = fine_maps[int(rng.integers(len(fine_maps)))]
        batch, num_rows, out_len, _ = g.shape
        width = (seq_len - out_len + 1) if seq_len is not None else 1
        height = (num_fields - num_rows + 1) if num_fields is not None else 1
        starts = _per_sample_starts(mask, batch, out_len)
        slack = out_len - 1 - starts
        positions = starts + (rng.random(batch) * (slack + 1)).astype(np.int64)
        row1 = int(rng.integers(num_rows))
        if num_rows > 1:
            row2 = int(rng.integers(num_rows - 1))
            if row2 >= row1:
                row2 += 1
        else:
            row2 = row1
        samples.append(FeatureViewSample(
            view1=gather_per_sample(g, row1, positions),
            view2=gather_per_sample(g, row2, positions), row1=row1, row2=row2,
            positions=positions, width=width, height=height))
    return samples
