"""Inference sessions: a frozen model plus everything needed to score rows.

:class:`InferenceSession` is the only way serving code touches a model.  It
loads an exported artifact (digest-verified), pins the model in eval mode,
and scores strictly under ``no_grad`` through the deterministic blocked
forward — so a session's logits are bit-identical to offline
``training.evaluate`` on the same rows, regardless of how requests were
batched.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..data.batching import Batch
from ..data.schema import DatasetSchema
from ..models.base import CTRModel
from ..nn.backend import resolve_backend
from .artifact import ArtifactError, load_artifact
from .forward import forward_logits, sigmoid

__all__ = ["InferenceSession", "rows_to_batch"]


def rows_to_batch(schema: DatasetSchema,
                  rows: Sequence[Mapping[str, Any]]) -> Batch:
    """Assemble request rows into a :class:`Batch`, validating shapes.

    Each row is a mapping with ``categorical`` (I ids), ``sequences``
    (J × L ids, front-padded with 0 like the training pipeline), and
    ``mask`` (L booleans).  Labels are unknown at serving time and filled
    with zeros; nothing on the inference path reads them.

    All rows are converted with one ``np.asarray`` per field and checked
    per column.  Only when that fails are the rows walked one by one, so
    the error names the first bad row exactly as a row-by-row check would.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    n = len(rows)
    try:
        batch = _convert_columns(schema, rows)
    except (KeyError, TypeError, ValueError, OverflowError):
        batch = None  # malformed somewhere: find the first bad row
    if batch is None:
        converted = [_convert_row(schema, r, row) for r, row in enumerate(rows)]
        batch = tuple(np.stack(column) for column in zip(*converted))
    categorical, sequences, mask = batch
    return Batch(categorical=categorical, sequences=sequences, mask=mask,
                 labels=np.zeros(n, dtype=np.float64))


def _convert_columns(schema: DatasetSchema, rows
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Every row at once; ``None`` (or an exception) unless all are valid."""
    n = len(rows)
    i, j, t = schema.num_categorical, schema.num_sequential, schema.max_seq_len
    categorical = np.asarray([row["categorical"] for row in rows],
                             dtype=np.int64)
    sequences = np.asarray([row["sequences"] for row in rows],
                           dtype=np.int64)
    mask = np.asarray([row["mask"] for row in rows])
    # A numeric mask casts to bool the same whole or row by row; other
    # content (strings, objects) may not, so it takes the row-by-row path.
    if (categorical.shape != (n, i) or sequences.shape != (n, j, t)
            or mask.shape != (n, t) or mask.dtype.kind not in "biuf"):
        return None
    cat_vocab = np.array([spec.vocab_size for spec in schema.categorical])
    seq_vocab = np.array([spec.vocab_size for spec in schema.sequential])
    if ((categorical < 0).any() or (categorical >= cat_vocab).any()
            or (sequences < 0).any()
            or (sequences >= seq_vocab[:, None]).any()):
        return None
    return categorical, sequences, mask.astype(bool)


def _convert_row(schema: DatasetSchema, r: int, row: Mapping[str, Any]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row, validated; errors name row ``r`` and the offending field."""
    i, j, t = schema.num_categorical, schema.num_sequential, schema.max_seq_len
    try:
        cat = np.asarray(row["categorical"], dtype=np.int64)
        seq = np.asarray(row["sequences"], dtype=np.int64)
        msk = np.asarray(row["mask"]).astype(bool)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"row {r}: expected keys categorical/sequences/"
                         f"mask with integer content ({exc})") from exc
    if cat.shape != (i,):
        raise ValueError(f"row {r}: categorical has shape {cat.shape}, "
                         f"schema {schema.name!r} needs ({i},)")
    if seq.shape != (j, t):
        raise ValueError(f"row {r}: sequences has shape {seq.shape}, "
                         f"schema {schema.name!r} needs ({j}, {t})")
    if msk.shape != (t,):
        raise ValueError(f"row {r}: mask has shape {msk.shape}, "
                         f"schema {schema.name!r} needs ({t},)")
    for col, spec in enumerate(schema.categorical):
        if not 0 <= cat[col] < spec.vocab_size:
            raise ValueError(
                f"row {r}: categorical field {spec.name!r} id "
                f"{int(cat[col])} outside vocab [0, {spec.vocab_size})")
    for fld, spec in enumerate(schema.sequential):
        ids = seq[fld]
        if ids.min() < 0 or ids.max() >= spec.vocab_size:
            raise ValueError(
                f"row {r}: sequential field {spec.name!r} contains ids "
                f"outside vocab [0, {spec.vocab_size})")
    return cat, seq, msk


class InferenceSession:
    """A loaded artifact ready to score batches.

    Thread-safety: scoring is read-only over frozen weights (``no_grad``
    forwards never mutate parameters), so concurrent ``score_batch`` calls
    from the engine's worker threads are safe.
    """

    def __init__(self, model: CTRModel, manifest: dict[str, Any]):
        self.model = model
        self.manifest = manifest
        self.schema = model.schema
        self.block_size = int(manifest.get("block_size", 0)) or None
        if self.block_size is None:
            raise ArtifactError("manifest lacks a block_size; parity with "
                                "offline evaluation cannot be guaranteed")
        # Pin scoring to the backend the artifact was exported under so
        # online logits match the exporting run bit-for-bit.  Artifacts
        # predating the backend seam ran the reference semantics.
        self.backend = str(manifest.get("backend") or "reference")
        try:
            resolve_backend(self.backend)
        except ValueError as exc:
            raise ArtifactError(
                f"manifest pins unknown backend {self.backend!r}: "
                f"{exc}") from exc
        model.eval()

    @classmethod
    def load(cls, path: str | Path) -> "InferenceSession":
        """Reconstruct the model from an artifact directory (digest-checked)."""
        model, manifest = load_artifact(path)
        return cls(model, manifest)

    @property
    def model_name(self) -> str:
        return str(self.manifest["model"])

    def artifact_digest(self) -> str:
        """Stable identity of the loaded weights: SHA-256 over the
        manifest's per-array digests.  Fleet probes compare this across
        replicas to confirm they serve the same artifact."""
        h = hashlib.sha256()
        for name in sorted(self.manifest.get("arrays", {})):
            h.update(name.encode("utf-8"))
            h.update(self.manifest["arrays"][name]["sha256"].encode("ascii"))
        return h.hexdigest()

    def score_batch(self, batch: Batch) -> np.ndarray:
        """Logits for ``batch`` — deterministic, eval-mode, gradient-free."""
        return forward_logits(self.model, batch, block_size=self.block_size,
                              backend=self.backend)

    def score_rows(self, rows: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Logits for request-dict rows (see :func:`rows_to_batch`)."""
        return self.score_batch(rows_to_batch(self.schema, rows))

    @staticmethod
    def probabilities(logits: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(logits, dtype=np.float64))

    def describe(self) -> dict[str, Any]:
        """JSON-safe identity block (used by /healthz and ``predict``)."""
        return {
            "model": self.model_name,
            "miss": self.manifest.get("miss") is not None,
            "dataset": self.manifest.get("metadata", {}).get("dataset"),
            "schema": self.schema.name,
            "num_categorical": self.schema.num_categorical,
            "num_sequential": self.schema.num_sequential,
            "max_seq_len": self.schema.max_seq_len,
            "block_size": self.block_size,
            "backend": self.backend,
        }
