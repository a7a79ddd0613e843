"""The MISS self-supervised component (Figure 3, left side).

Pipeline per batch: sequential embeddings ``C`` → multi-interest extraction →
interest-level augmentation → shared encoder → InfoNCE (Eq. 15), and in
parallel the fine-grained branch → feature-level augmentation → encoder →
InfoNCE (Eq. 16).  The module is model-agnostic: it only needs the embedding
tensor ``C``, which every :class:`~repro.models.base.DeepCTRModel` exposes.

When the raw id sequences are supplied, in-batch negatives whose underlying
id window is identical to the anchor's are excluded from the InfoNCE
denominator (SupCon-style de-duplication).  This matters most for the
feature-level loss: low-cardinality fields such as item category collide
constantly inside a batch, and repelling id-identical views would scramble
the small embedding tables.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import DatasetSchema
from ..nn import Module, Tensor, concatenate, get_backend
from ..nn import functional as F
from ..obs.timers import phase
from .augmentation import (
    FeatureViewSample,
    InterestViewSample,
    sample_feature_pairs,
    sample_interest_pairs,
)
from .config import MISSConfig
from .encoders import FieldAwareViewEncoder, ViewEncoder
from .transformer_encoder import TransformerViewEncoder
from .extractors import FineGrainedExtractor, MultiInterestExtractor
from .extractors_alt import LSTMExtractor, SelfAttentionExtractor
from .losses import info_nce

__all__ = ["MISSModule"]

#: Encoded view pairs of one family: one stacked ``(P, B, D)`` pair, or a
#: list of ``P`` separate ``(B, D)`` pairs (the reference per-pair path).
EncodedViews = tuple[Tensor, Tensor] | list[tuple[Tensor, Tensor]]


def _id_blocks(sequences: np.ndarray, row_start: int, height: int,
               positions: np.ndarray, width: int) -> np.ndarray:
    """Flattened id window per sample: ``(B, height·width)``.

    ``sequences`` is the raw ``(B, J, L)`` id tensor; the window covers field
    rows ``[row_start, row_start+height)`` and time columns
    ``[position, position+width)`` for each sample.
    """
    batch, fields, length = sequences.shape
    offsets = (np.arange(row_start, row_start + height)[:, None] * length
               + np.arange(width)[None, :]).ravel()
    starts = np.arange(batch) * (fields * length) + positions
    return sequences.reshape(-1)[starts[:, None] + offsets[None, :]]


def _encode_stacked(encode, views: list[Tensor]) -> Tensor:
    """``encode`` the ``P`` views ``(B, ·)`` in one forward, as ``(P, B, D)``."""
    out = encode(concatenate(views, axis=0))
    return out.reshape(len(views), views[0].shape[0], out.shape[-1])


def _false_negatives(block1: np.ndarray, block2: np.ndarray) -> np.ndarray:
    """``(B, B)`` mask: ``[i, j]`` True iff ``block2[j]`` equals ``block2[i]``
    or ``block1[i]``.

    The ``2B`` integer id windows are interned by one ``np.unique`` over
    their rows viewed as opaque byte strings, then compared as ids:
    ``O(B·w·log B + B²)`` instead of a ``(B, B, w)`` broadcast compare.
    """
    batch = block1.shape[0]
    rows = np.concatenate([block1, block2])  # fresh and C-contiguous
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    ids = np.unique(keys.ravel(), return_inverse=True)[1].reshape(-1)
    ids = ids.astype(np.min_scalar_type(2 * batch))  # narrower compares
    first, second = ids[:batch], ids[batch:]
    return ((second[:, None] == second[None, :])
            | (first[:, None] == second[None, :]))


class MISSModule(Module):
    """Multi-interest self-supervision over sequence embeddings."""

    def __init__(self, schema: DatasetSchema, embedding_dim: int,
                 config: MISSConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.schema = schema
        self.embedding_dim = embedding_dim
        num_fields = schema.num_sequential

        if config.extractor == "cnn":
            self.extractor = MultiInterestExtractor(config.effective_width, rng)
            num_branches = config.effective_width
        elif config.extractor == "sa":
            self.extractor = SelfAttentionExtractor(embedding_dim, rng)
            num_branches = 1
        else:  # "lstm"
            self.extractor = LSTMExtractor(embedding_dim, rng)
            num_branches = 1

        if config.use_fine_grained:
            self.fine_extractor = FineGrainedExtractor(
                num_branches, config.max_kernel_height, rng)
        else:
            self.fine_extractor = None

        if config.interest_encoder == "transformer":
            self.interest_encoder = TransformerViewEncoder(
                num_fields, embedding_dim, config.interest_encoder_sizes, rng)
        else:
            self.interest_encoder = ViewEncoder(
                num_fields * embedding_dim, config.interest_encoder_sizes, rng)
        if config.field_aware_encoder:
            self.feature_encoder = FieldAwareViewEncoder(
                embedding_dim, num_fields, config.feature_encoder_sizes, rng)
        else:
            self.feature_encoder = ViewEncoder(
                embedding_dim, config.feature_encoder_sizes, rng)
        self._rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def interest_maps(self, c: Tensor) -> list[Tensor]:
        """``[G_1..G_M]`` (or a single map for the SA/LSTM extractors)."""
        return self.extractor(c)

    def _sample_level_views(self, c: Tensor, mask: np.ndarray | None
                            ) -> tuple[Tensor, Tensor]:
        """The MISS/M fallback: one global interest per sample, two dropout
        views — exactly the sample-level contrast the paper argues against."""
        if mask is not None:
            weights = mask.astype(np.float64)
            denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
            pooled = (c * Tensor((weights / denom)[:, None, :, None])).sum(axis=2)
        else:
            pooled = c.mean(axis=2)
        flat = pooled.flatten_from(1)  # (B, J*K)
        view1 = F.dropout(flat, 0.2, self._rng, training=True)
        view2 = F.dropout(flat, 0.2, self._rng, training=True)
        return view1, view2

    # ------------------------------------------------------------------
    # False-negative masks
    # ------------------------------------------------------------------
    def _interest_false_negatives(self, samples: list[InterestViewSample],
                                  sequences: np.ndarray | None
                                  ) -> np.ndarray | None:
        """``(P, B, B)`` masks of id-identical interest windows, or None."""
        if sequences is None or not self.config.dedup_false_negatives:
            return None
        num_fields = sequences.shape[1]
        return np.stack([_false_negatives(
            _id_blocks(sequences, 0, num_fields, s.left, s.width),
            _id_blocks(sequences, 0, num_fields, s.right, s.width))
            for s in samples])

    def _feature_false_negatives(self, samples: list[FeatureViewSample],
                                 sequences: np.ndarray | None
                                 ) -> np.ndarray | None:
        """``(P, B, B)`` masks of id-identical feature windows, or None."""
        if sequences is None or not self.config.dedup_false_negatives:
            return None
        return np.stack([_false_negatives(
            _id_blocks(sequences, s.row1, s.height, s.positions, s.width),
            _id_blocks(sequences, s.row2, s.height, s.positions, s.width))
            for s in samples])

    # ------------------------------------------------------------------
    # View encoding (optionally stacked across pairs)
    # ------------------------------------------------------------------
    def _encode_interest_views(self, samples: list[InterestViewSample]
                               ) -> EncodedViews:
        """Encode every interest view pair with the shared encoder.

        Under a backend that batches SSL views, all first views go through
        the encoder as one ``(P·B, J·K)`` forward and all second views as
        another (the encoder is a plain per-row MLP, so this is
        mathematically identical), giving one stacked ``(P, B, D)`` pair.
        Kept per-pair on the reference backend to preserve the seed's exact
        floating-point reduction order.
        """
        encoder = self.interest_encoder
        if not (get_backend().batches_ssl_views and type(encoder) is ViewEncoder):
            return [encoder.encode_pair(*sample.pair) for sample in samples]
        return (_encode_stacked(encoder, [s.view1 for s in samples]),
                _encode_stacked(encoder, [s.view2 for s in samples]))

    def _encode_feature_views(self, samples: list[FeatureViewSample]
                              ) -> EncodedViews:
        """Same stacking for the feature-level encoder.

        The field-aware encoder applies its per-field projections per view
        (they are field-specific by design) and stacks only the shared MLP.
        """
        encoder = self.feature_encoder
        field_aware = isinstance(encoder, FieldAwareViewEncoder)
        if not get_backend().batches_ssl_views:
            if field_aware:
                return [encoder.encode_pair(s.view1, s.view2, s.row1, s.row2)
                        for s in samples]
            return [encoder.encode_pair(s.view1, s.view2) for s in samples]
        if not field_aware:
            return (_encode_stacked(encoder, [s.view1 for s in samples]),
                    _encode_stacked(encoder, [s.view2 for s in samples]))
        project = encoder.projections
        first = [project[s.row1](s.view1) for s in samples]
        second = [project[s.row2](s.view2) for s in samples]
        return (_encode_stacked(encoder.shared, first),
                _encode_stacked(encoder.shared, second))

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------
    def _contrast(self, encoded: EncodedViews,
                  masks: np.ndarray | None) -> Tensor:
        """Mean InfoNCE of one view family (Eq. 15 or 16) over its pairs.

        A stacked ``(P, B, D)`` pair is one ``info_nce`` call; per-pair
        views are summed in order and scaled by ``1/P``, as the seed did.
        """
        temperature = self.config.temperature
        if isinstance(encoded, tuple):
            return info_nce(*encoded, temperature, masks)
        loss = None
        for p, (z1, z2) in enumerate(encoded):
            term = info_nce(z1, z2, temperature,
                            None if masks is None else masks[p])
            loss = term if loss is None else loss + term
        return loss * (1.0 / len(encoded))

    def ssl_losses(self, c: Tensor, mask: np.ndarray | None = None,
                   sequences: np.ndarray | None = None
                   ) -> tuple[Tensor, Tensor]:
        """``(L_ssl, L'_ssl)`` of Eq. 15-16 for one batch.

        The feature-level loss is a constant zero tensor under the /F
        ablation so Eq. 17 keeps its shape.
        """
        cfg = self.config
        if not cfg.use_multi_interest:
            view1, view2 = self._sample_level_views(c, mask)
            z1, z2 = self.interest_encoder.encode_pair(view1, view2)
            interest_loss = info_nce(z1, z2, cfg.temperature)
            return interest_loss, Tensor(0.0)

        with phase("model.ssl.mie"):
            maps = self.interest_maps(c)
        seq_len = c.shape[2]
        with phase("model.ssl.augment"):
            samples = sample_interest_pairs(maps, cfg.num_interest_pairs,
                                            cfg.effective_distance, self._rng,
                                            mask=mask, seq_len=seq_len,
                                            distribution=cfg.distance_distribution)
        with phase("model.ssl.infonce"):
            interest_loss = self._contrast(
                self._encode_interest_views(samples),
                self._interest_false_negatives(samples, sequences))

        if self.fine_extractor is None:
            return interest_loss, Tensor(0.0)

        with phase("model.ssl.mimfe"):
            fine_maps = self.fine_extractor(maps)
        with phase("model.ssl.augment"):
            fine_samples = sample_feature_pairs(
                fine_maps, cfg.num_feature_pairs, self._rng, mask=mask,
                seq_len=seq_len, num_fields=c.shape[1])
        with phase("model.ssl.infonce"):
            feature_loss = self._contrast(
                self._encode_feature_views(fine_samples),
                self._feature_false_negatives(fine_samples, sequences))
        return interest_loss, feature_loss

    def forward(self, c: Tensor, mask: np.ndarray | None = None,
                sequences: np.ndarray | None = None) -> Tensor:
        """Weighted SSL loss ``α1·L_ssl + α2·L'_ssl``."""
        interest_loss, feature_loss = self.ssl_losses(c, mask, sequences)
        return (self.config.alpha_interest * interest_loss
                + self.config.alpha_feature * feature_loss)

    # ------------------------------------------------------------------
    # Diagnostics (Figure 5)
    # ------------------------------------------------------------------
    def pair_similarity(self, c: Tensor, num_pairs: int | None = None,
                        mask: np.ndarray | None = None,
                        rng: np.random.Generator | None = None) -> float:
        """Mean cosine similarity of freshly sampled interest view pairs.

        The paper's Figure 5 plots this during training: the CNN extractor
        stays near 0.7-0.8 (informative pairs) while SA/LSTM collapse to ~1.
        Pairs are drawn from ``rng`` (a generator seeded with the config
        seed when omitted), never from the training generator, so observing
        a run does not change it.
        """
        cfg = self.config
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        maps = self.interest_maps(c)
        samples = sample_interest_pairs(maps, num_pairs or cfg.num_interest_pairs,
                                        cfg.effective_distance, rng,
                                        mask=mask, seq_len=c.shape[2],
                                        distribution=cfg.distance_distribution)
        sims = [float(F.cosine_similarity(s.view1.detach(),
                                          s.view2.detach()).mean().data)
                for s in samples]
        return float(np.mean(sims))
