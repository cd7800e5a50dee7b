import json

import numpy as np
import pytest

from eeglstm.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from eeglstm.errors import CheckpointError
from eeglstm.layers import ModelConfig, init_params


@pytest.fixture
def model():
    return init_params(ModelConfig(variant=2, seq_len=16, hidden_sizes=(6, 4)), seed=21)


def test_round_trip_bit_identical(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, standardized=True, provenance={"seed": 7, "epoch": 3})
    loaded, meta = load_checkpoint(path)
    assert loaded.params.tobytes() == model.params.tobytes()
    assert loaded.config == model.config
    assert meta["standardized"] is True
    assert meta["provenance"] == {"seed": 7, "epoch": 3}


def test_truncated_file_is_load_error_not_crash(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)


def test_integer_beyond_json_digit_limit_is_load_error(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    text = path.read_text()
    path.write_text(text.replace('"seq_len": 16', '"seq_len": 1' + "0" * 5000))
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.json")


def test_version_mismatch_rejected(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)


def test_variant_mismatch_rejected(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    with pytest.raises(CheckpointError, match="variant"):
        load_checkpoint(path, expect_variant=1)
    loaded, _ = load_checkpoint(path, expect_variant=2)
    assert loaded.config.variant == 2


def test_shape_mismatch_names_field(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    doc["params"]["lstm2.bias"]["shape"] = [99]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="lstm2.bias"):
        load_checkpoint(path)


def test_missing_parameter_block(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    del doc["params"]["dense.weights"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="dense.weights"):
        load_checkpoint(path)


def test_missing_model_field(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    del doc["model"]["seq_len"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="seq_len"):
        load_checkpoint(path)


def test_missing_provenance(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    del doc["provenance"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="provenance"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "section,key,value,match",
    [
        ("model", "hidden_sizes", 5, "hidden_sizes"),
        ("model", "hidden_sizes", [None, 4], "hidden_sizes"),
        ("model", "hidden_sizes", [float("inf"), 4], "hidden_sizes"),
        ("model", "seq_len", None, "seq_len"),
        ("model", "variant", "two", "variant"),
        ("model", "dropout_prob", [0.3], "dropout_prob"),
        ("params", "lstm1.kernel", {"shape": [1, 24], "data": ["a"]}, "lstm1.kernel"),
        ("params", "lstm2.bias", [0.0] * 16, "lstm2.bias"),
        ("params", "lstm2.recurrent", {"shape": None, "data": [0.0] * 64}, "lstm2.recurrent"),
        ("params", "dense.weights", {"shape": [4], "data": [0, float("nan"), 0, 0]}, "dense.weights.*non-finite"),
        ("params", "dense.bias", {"shape": [], "data": [float("inf")]}, "dense.bias.*non-finite"),
        (None, "standardized", "false", "standardized"),
        (None, "format_version", True, "format_version"),
        (None, "format_version", 1.0, "format_version"),
        (None, "provenance", [1, 2], "provenance"),
        ("model", "input_dim", 3, "input_dim"),
        ("model", "input_dim", True, "input_dim"),
        ("model", "variant", 2.0, "variant"),
        ("model", "seq_len", 16.5, "seq_len"),
        ("model", "seq_len", "16", "seq_len"),
        ("model", "hidden_sizes", [6.0, 4.9], "hidden_sizes"),
        ("model", "dropout_prob", False, "dropout_prob"),
        ("params", "dense.bias", {"shape": [], "data": "0.5"}, "dense.bias"),
        ("params", "dense.bias", {"shape": [], "data": True}, "dense.bias"),
        ("params", "dense.weights", {"shape": [4], "data": ["1", "2", True, 0]}, "dense.weights"),
        ("params", "dense.weights", {"shape": [4], "data": [[1, 2], [3, 4]]}, "dense.weights"),
        ("params", "dense.weights", {"shape": [4.0], "data": [0, 0, 0, 0]}, "dense.weights"),
        ("params", "dense.weights", {"shape": [4], "data": [10**400, 0, 0, 0]}, "dense.weights"),
        ("model", "hidden_sizes", [], "hidden_sizes"),
        ("model", "hidden_sizes", None, "hidden_sizes"),
        ("model", "dropout_prob", None, "dropout_prob"),
        # checked against the stored blocks before any array of that size exists
        ("model", "hidden_sizes", [10**7, 4], "lstm1.kernel"),
        # save_checkpoint writes every block's data as a list, one value included
        ("params", "dense.bias", {"shape": [], "data": 0.5}, "dense.bias"),
        # dropout_prob must be the variant's rate: 0.35 for variant 2, 0.0 for variant 1
        ("model", "dropout_prob", 0.2, "dropout_prob"),
        (None, "model", {"variant": 1, "hidden_sizes": [6], "dropout_prob": 0.35, "input_dim": 1, "seq_len": 16},
         "dropout_prob"),
        # a block the layout does not name is not ignored
        ("params", "lstm3.kernel", {"shape": [1, 16], "data": [0.0] * 16}, "lstm3.kernel"),
    ],
)
def test_malformed_field_is_checkpoint_error(model, tmp_path, section, key, value, match):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    (doc if section is None else doc[section])[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_arbitrary_float_values_survive(tmp_path):
    model = init_params(ModelConfig(variant=1, seq_len=8, hidden_sizes=(3,)), 0)
    model.params[0] = np.nextafter(1.0, 2.0)  # value with no short decimal form
    model.params[1] = -1e-300
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert loaded.params.tobytes() == model.params.tobytes()
