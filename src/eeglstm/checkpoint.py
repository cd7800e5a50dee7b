"""JSON checkpoints: flat parameter arrays plus config echo and provenance.

The format is deliberately plain JSON so checkpoints are human-inspectable
and language-portable; at most ~116k parameters, binary efficiency is
irrelevant. Save -> load round-trips parameters bit-identically (Python's
float repr is shortest-roundtrip).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import write_ascii
from .errors import CheckpointError
from .layers import Model, ModelConfig, layout

FORMAT_VERSION = 1


def save_checkpoint(path, model: Model, standardized: bool = False, provenance: dict | None = None) -> None:
    write_ascii(path, checkpoint_text(model, standardized, provenance))


def checkpoint_text(model: Model, standardized: bool, provenance: dict | None) -> str:
    """The text of a checkpoint file, which load_checkpoint reads back."""
    cfg = model.config
    doc = {
        "format_version": FORMAT_VERSION,
        "model": {
            "variant": cfg.variant,
            "hidden_sizes": list(cfg.hidden_sizes),
            "dropout_prob": cfg.dropout_prob,
            "input_dim": 1,
            "seq_len": cfg.seq_len,
        },
        "standardized": bool(standardized),
        "provenance": provenance or {},
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in model.blocks(model.params).items()
        },
    }
    # json.dumps, unlike json.dump, runs the C encoder: about half the time for the same text.
    return json.dumps(doc) + "\n"


# The types json.load gives JSON numbers. Checks compare exact types, because
# bool is a subclass of int.
_NUMBER_TYPES = {int, float}


def _require(doc, key: str):
    """doc[key]; a JSON null counts as missing, so it never means a default."""
    if not isinstance(doc, dict) or doc.get(key) is None:
        raise CheckpointError(f"checkpoint field {key!r} is missing or null")
    return doc[key]


def load_checkpoint(path, expect_variant: int | None = None):
    """Rebuild a Model from a checkpoint file.

    Returns (model, meta) where meta holds the standardization flag (a JSON
    true or false) and the saved provenance. Raises CheckpointError on
    unreadable files, version mismatch, missing, malformed, non-finite or
    mis-shaped fields, and parameter blocks the layout does not name (naming
    the field or block).
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON, bad bytes and over-long integers
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"unreadable checkpoint {path}: not a JSON object")

    version = _require(doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    info = _require(doc, "model")
    # Input is always single-channel; the field is kept so the format is unchanged.
    input_dim = _require(info, "input_dim")
    if type(input_dim) is not int or input_dim != 1:
        raise CheckpointError(f"invalid model field 'input_dim' in checkpoint: {input_dim!r}, expected 1")
    fields = {key: _require(info, key) for key in ("variant", "hidden_sizes", "dropout_prob", "seq_len")}
    dropout = fields.pop("dropout_prob")
    try:
        config = ModelConfig(**fields)
    except ValueError as exc:
        raise CheckpointError(f"invalid model config in checkpoint: {exc}") from exc
    # The rate is fixed by the variant; the field is kept so the format is unchanged.
    if type(dropout) not in _NUMBER_TYPES or dropout != config.dropout_prob:
        raise CheckpointError(
            f"invalid model field 'dropout_prob' in checkpoint: {dropout!r}, expected {config.dropout_prob}"
        )
    if expect_variant is not None and config.variant != expect_variant:
        raise CheckpointError(f"checkpoint holds model variant {config.variant}, requested variant {expect_variant}")

    # Every stored block is checked against the layout before the model exists.
    stored = _require(doc, "params")
    blocks = []
    for name, expected in layout(config):
        entry = _require(stored, name)
        try:
            shape, data = entry["shape"], entry["data"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{name}: malformed parameter block: {type(exc).__name__}: {exc}") from exc
        if type(shape) is not list or not all(type(n) is int for n in shape):
            raise CheckpointError(f"{name}: checkpoint shape {shape!r} is not a list of integers")
        if type(data) is not list or not set(map(type, data)) <= _NUMBER_TYPES:
            raise CheckpointError(f"{name}: checkpoint data is not a flat list of numbers")
        try:
            data = np.array(data, dtype=np.float64)
        except OverflowError as exc:
            raise CheckpointError(f"{name}: checkpoint value out of float64 range: {exc}") from exc
        if shape != list(expected):
            raise CheckpointError(f"{name}: checkpoint shape {shape} != expected {list(expected)}")
        if data.size != math.prod(expected):
            raise CheckpointError(f"{name}: checkpoint holds {data.size} values, expected {math.prod(expected)}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{name}: checkpoint holds non-finite values")
        blocks.append(data)
    unknown = sorted(stored.keys() - {name for name, _ in layout(config)})
    if unknown:
        raise CheckpointError(f"{', '.join(unknown)}: checkpoint block not in the model {config.variant} layout")
    model = Model(config)
    model.params[...] = np.concatenate(blocks)
    standardized = _require(doc, "standardized")
    if not isinstance(standardized, bool):
        raise CheckpointError(f"invalid field 'standardized' in checkpoint: {standardized!r} is not true or false")
    provenance = _require(doc, "provenance")
    if not isinstance(provenance, dict):
        raise CheckpointError(f"invalid field 'provenance' in checkpoint: {provenance!r} is not an object")
    return model, {"standardized": standardized, "provenance": provenance}
