"""Frozen model artifacts: the on-disk unit shipped from training to serving.

An artifact is a directory with exactly two files::

    artifact/
      manifest.json   # identity, schema, config, per-array SHA-256 digests
      weights.npz     # flat state dict via nn.serialization (atomic write)

The manifest pins everything needed to reconstruct the model without the
training pipeline: the registry name, the embedding dimension, the full
feature schema, the MISS configuration (when the SSL plug-in was attached),
and a SHA-256 digest of every weight array.  Both files are published with
:mod:`repro.resilience.atomic` writes, and :func:`load_artifact` refuses to
build a model from arrays whose digests do not match the manifest — a
truncated copy or a bit-flipped weight fails loudly at load time, never as
silently wrong scores.

``format_version`` governs the manifest layout; bump it on breaking changes
and keep readers backward compatible where possible.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from ..core.config import MISSConfig
from ..core.plugin import attach_miss
from ..data.schema import DatasetSchema
from ..models.base import CTRModel
from ..models.registry import MODEL_NAMES, create_model
from ..nn.backend import get_backend
from ..nn.serialization import read_state, save_checkpoint
from ..resilience.atomic import atomic_write_json
from ..resilience.checkpoint import array_digest
from .forward import PARITY_BLOCK

__all__ = ["ArtifactError", "MANIFEST_NAME", "WEIGHTS_NAME", "FORMAT_VERSION",
           "export_artifact", "load_artifact", "load_manifest"]

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"
FORMAT_VERSION = 1


class ArtifactError(ValueError):
    """A serving artifact is missing, malformed, or fails verification."""


def _miss_config_to_dict(config: MISSConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def _miss_config_from_dict(payload: dict[str, Any]) -> MISSConfig:
    coerced = dict(payload)
    # JSON has no tuples; the encoder-size fields must come back hashable.
    for key in ("interest_encoder_sizes", "feature_encoder_sizes"):
        if key in coerced:
            coerced[key] = tuple(coerced[key])
    return MISSConfig(**coerced)


def export_artifact(model: CTRModel, path: str | Path, *,
                    model_name: str,
                    miss_config: MISSConfig | None = None,
                    metadata: dict[str, Any] | None = None) -> Path:
    """Freeze ``model`` into an artifact directory at ``path``.

    ``model_name`` must be a registry name so the serving process can rebuild
    the architecture; pass ``miss_config`` when ``model`` is the
    MISS-enhanced wrapper (its SSL tower is part of the state dict and must
    be reconstructed to load it).  ``metadata`` is free-form JSON-safe
    context (dataset, eval metrics, training settings) carried along for
    humans and ops tooling; it does not affect loading.

    Returns the artifact directory.  Both files are written atomically; the
    manifest is written last so a crash mid-export leaves a directory that
    fails loading cleanly instead of one that loads stale weights.
    """
    if model_name not in MODEL_NAMES:
        raise ArtifactError(
            f"model_name {model_name!r} is not in the registry; artifacts "
            f"must be reconstructible — choose from {MODEL_NAMES}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    state = model.state_dict()
    save_checkpoint(model, path / WEIGHTS_NAME)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": model_name,
        "embedding_dim": int(getattr(model, "embedding_dim", 10)),
        "schema": model.schema.to_dict(),
        "miss": (_miss_config_to_dict(miss_config)
                 if miss_config is not None else None),
        "block_size": PARITY_BLOCK,
        # The backend active at export time.  Inference sessions pin scoring
        # to this backend so online logits stay bit-identical to the
        # exporting run's offline evaluation.
        "backend": get_backend().name,
        "arrays": {
            name: {"sha256": array_digest(array),
                   "shape": [int(d) for d in array.shape],
                   "dtype": str(array.dtype)}
            for name, array in sorted(state.items())
        },
        "metadata": metadata or {},
    }
    atomic_write_json(path / MANIFEST_NAME, manifest)
    return path


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and structurally validate an artifact's manifest."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ArtifactError(
            f"{path} is not a serving artifact: missing {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot read {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{manifest_path}: format_version {version!r} is not supported "
            f"(this library reads version {FORMAT_VERSION})")
    for key in ("model", "schema", "arrays", "block_size"):
        if key not in manifest:
            raise ArtifactError(f"{manifest_path}: missing required key "
                                f"{key!r}")
    return manifest


def _verify_arrays(state: dict[str, np.ndarray], manifest: dict[str, Any],
                   path: Path) -> None:
    declared = manifest["arrays"]
    missing = sorted(set(declared) - set(state))
    unexpected = sorted(set(state) - set(declared))
    if missing or unexpected:
        raise ArtifactError(
            f"{path}: weights do not match the manifest: "
            f"missing={missing}, unexpected={unexpected}")
    for name, spec in declared.items():
        array = state[name]
        if list(array.shape) != list(spec["shape"]):
            raise ArtifactError(
                f"{path}: array {name!r} has shape {tuple(array.shape)}, "
                f"manifest declares {tuple(spec['shape'])}")
        digest = array_digest(array)
        if digest != spec["sha256"]:
            raise ArtifactError(
                f"{path}: array {name!r} fails its checksum "
                f"(manifest {spec['sha256'][:12]}…, got {digest[:12]}…); "
                f"the artifact is corrupt — re-export it")


def load_artifact(path: str | Path) -> tuple[CTRModel, dict[str, Any]]:
    """Rebuild the frozen model; returns ``(model, manifest)``.

    Every weight array is digest-verified against the manifest *before* it
    is loaded into the model.  The model comes back in eval mode.
    """
    path = Path(path)
    manifest = load_manifest(path)
    schema = DatasetSchema.from_dict(manifest["schema"])
    model = create_model(manifest["model"], schema,
                         embedding_dim=int(manifest["embedding_dim"]),
                         seed=0)
    if manifest.get("miss") is not None:
        config = _miss_config_from_dict(manifest["miss"])
        model = attach_miss(model, config)
    weights_path = path / WEIGHTS_NAME
    if not weights_path.exists():
        raise ArtifactError(f"{path}: missing {WEIGHTS_NAME}")
    try:
        state = read_state(weights_path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ArtifactError(
            f"{path}: cannot read {WEIGHTS_NAME}: {exc}") from exc
    _verify_arrays(state, manifest, path)
    try:
        model.load_state_dict(state, strict=True)
    except (KeyError, ValueError) as exc:
        raise ArtifactError(
            f"{path}: weights do not fit the reconstructed "
            f"{manifest['model']!r} model: "
            f"{exc.args[0] if exc.args else exc}") from exc
    model.eval()
    return model, manifest
