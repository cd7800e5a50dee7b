"""JSON checkpoints: flat parameter arrays plus config echo and provenance.

The format is deliberately plain JSON so checkpoints are human-inspectable
and language-portable; at most ~116k parameters, binary efficiency is
irrelevant. Save -> load round-trips parameters bit-identically (Python's
float repr is shortest-roundtrip).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .layers import Model, ModelConfig

FORMAT_VERSION = 1


def save_checkpoint(path, model: Model, standardized: bool = False, provenance: dict | None = None) -> None:
    cfg = model.config
    doc = {
        "format_version": FORMAT_VERSION,
        "model": {
            "variant": cfg.variant,
            "hidden_sizes": list(cfg.hidden_sizes),
            "dropout_prob": cfg.dropout_prob,
            "input_dim": cfg.input_dim,
            "seq_len": cfg.seq_len,
        },
        "standardized": bool(standardized),
        "provenance": provenance or {},
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in model.blocks(model.params).items()
        },
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _require(doc, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise CheckpointError(f"checkpoint is missing field {key!r}")
    return doc[key]


def load_checkpoint(path, expect_variant: int | None = None):
    """Rebuild a Model from a checkpoint file.

    Returns (model, meta) where meta holds the standardization flag (a JSON
    true or false) and the saved provenance. Raises CheckpointError on
    unreadable files, version mismatch, and missing, malformed, non-finite or
    mis-shaped fields (naming the field).
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"unreadable checkpoint {path}: not a JSON object")

    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version}, expected {FORMAT_VERSION}")
    info = _require(doc, "model")
    casts = {
        "variant": int,
        "hidden_sizes": lambda sizes: tuple(map(int, sizes)),
        "dropout_prob": float,
        "input_dim": int,
        "seq_len": int,
    }
    fields = {}
    for key, cast in casts.items():
        value = _require(info, key)
        try:
            fields[key] = cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"invalid model field {key!r} in checkpoint: {exc}") from exc
    if expect_variant is not None and fields["variant"] != expect_variant:
        raise CheckpointError(
            f"checkpoint holds model variant {fields['variant']}, requested variant {expect_variant}"
        )
    try:
        config = ModelConfig(**fields)
    except ValueError as exc:
        raise CheckpointError(f"invalid model config in checkpoint: {exc}") from exc

    model = Model(config)
    stored = _require(doc, "params")
    for name, arr in model.blocks(model.params).items():
        entry = _require(stored, name)
        try:
            shape, data = tuple(entry["shape"]), np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{name}: malformed parameter block: {type(exc).__name__}: {exc}") from exc
        if shape != arr.shape:
            raise CheckpointError(f"{name}: checkpoint shape {list(shape)} != expected {list(arr.shape)}")
        if data.size != arr.size:
            raise CheckpointError(f"{name}: checkpoint holds {data.size} values, expected {arr.size}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{name}: checkpoint holds non-finite values")
        arr[...] = data.reshape(arr.shape)
    standardized = _require(doc, "standardized")
    if not isinstance(standardized, bool):
        raise CheckpointError(f"invalid field 'standardized' in checkpoint: {standardized!r} is not true or false")
    return model, {"standardized": standardized, "provenance": doc.get("provenance", {})}
