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
            for name, arr in zip(model.param_names(), model.param_arrays())
        },
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise CheckpointError(f"checkpoint is missing field {key!r}")
    return doc[key]


def load_checkpoint(path, expect_variant: int | None = None):
    """Rebuild a Model from a checkpoint file.

    Returns (model, meta) where meta holds the standardization flag and the
    saved provenance. Raises CheckpointError on unreadable files, version
    mismatch, missing fields, or shape mismatches (naming the field).
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
    for key in ("variant", "hidden_sizes", "dropout_prob", "input_dim", "seq_len"):
        _require(info, key)
    if expect_variant is not None and info["variant"] != expect_variant:
        raise CheckpointError(
            f"checkpoint holds model variant {info['variant']}, requested variant {expect_variant}"
        )
    try:
        config = ModelConfig(
            variant=int(info["variant"]),
            seq_len=int(info["seq_len"]),
            hidden_sizes=tuple(info["hidden_sizes"]),
            dropout_prob=float(info["dropout_prob"]),
            input_dim=int(info["input_dim"]),
        )
    except ValueError as exc:
        raise CheckpointError(f"invalid model config in checkpoint: {exc}") from exc

    model = Model(config)
    stored = _require(doc, "params")
    for name, arr in zip(model.param_names(), model.param_arrays()):
        if name not in stored:
            raise CheckpointError(f"checkpoint is missing parameter block {name!r}")
        entry = stored[name]
        shape = tuple(entry.get("shape", ()))
        if shape != arr.shape:
            raise CheckpointError(f"{name}: checkpoint shape {list(shape)} != expected {list(arr.shape)}")
        data = np.asarray(entry.get("data", []), dtype=np.float64)
        if data.size != arr.size:
            raise CheckpointError(f"{name}: checkpoint holds {data.size} values, expected {arr.size}")
        arr[...] = data.reshape(arr.shape)
    meta = {
        "standardized": bool(doc.get("standardized", False)),
        "provenance": doc.get("provenance", {}),
    }
    return model, meta
