"""The dataset and harness calls that bench/run.py makes, on a tiny on-disk
corpus. The benchmark scripts are kept unchanged across refactors, so a change
that breaks one of these calls fails here, not only in a benchmark run."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from eeglstm import checkpoint, data, harness, layers
from eeglstm.layers import ModelConfig, init_params
from eeglstm.optim import TrainConfig


def test_benchmark_dataset_and_harness_calls(tmp_path, monkeypatch):
    synth = data.gen_synthetic(data.SynthSpec(2.0, 10.0, 40.0, 5.0, 64.0, 100), seq_len=16, seed=0)
    data.export_bonn_format(synth, tmp_path, set_names=("A", "E"))
    first, second = (data.load_bonn_set(tmp_path, s, expected_len=16) for s in ("A", "E"))
    first, second = (replace(rs, sequences=rs.sequences[:20]) for rs in (first, second))
    dataset = data.standardize_dataset(data.make_pair_dataset(first, second))
    assert len(dataset.samples) == 40

    idx = np.array([0, 1, 38, 39])
    x = dataset.values()[idx]
    y = dataset.labels()[idx].astype(np.float64)
    assert x.shape == (4, 16) and list(y) == [0.0, 0.0, 1.0, 1.0]

    saved = init_params(ModelConfig(variant=1, seq_len=16), 0)
    checkpoint.save_checkpoint(tmp_path / "ckpt.json", saved, standardized=True, provenance={"seed": 0})
    model, meta = checkpoint.load_checkpoint(tmp_path / "ckpt.json", expect_variant=1)
    assert meta["standardized"] is True
    assert all(np.array_equal(a, b) for a, b in zip(model.param_arrays(), saved.param_arrays()))
    report, scores = harness.evaluate(model, dataset)
    assert report.total == 40 and scores.shape == (40,)
    # evaluate-m1's exact-AUC check: the brute-force Mann-Whitney pair count
    labels = dataset.labels()
    pos, neg = scores[labels == 1], scores[labels == 0]
    greater = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    assert report.auc == (2 * greater + ties) / (2 * pos.size * neg.size)

    # a traced run wraps the module attribute; run_experiment must call through it
    folds_trained = []
    real = harness.train_model

    def traced(*args, **kwargs):
        folds_trained.append(args[2].fold_index)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train_model", traced)
    result = harness.run_experiment(dataset, 1, 2, 7, TrainConfig(batch_size=4, epochs=1, seed=7))
    assert folds_trained == [0, 1]
    assert len(result.curves) == 2 and all(len(curves) == 1 for curves in result.curves)


def test_traced_describers_read_the_call_signatures(tmp_path, monkeypatch):
    """A `--trace 1` run describes six functions from their bound arguments and
    results (bench/spans.py DESCRIBE); a renamed parameter or attribute would
    fail only there, as a describe error."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    owners = {"layers": layers, "layers.Model": layers.Model, "data": data}
    for name in spans.DESCRIBE:
        owner, attr = name.rsplit(".", 1)
        monkeypatch.setattr(owners[owner], attr, tracer.wrap(name, vars(owners[owner])[attr]))

    synth = data.gen_synthetic(data.SynthSpec(2.0, 10.0, 40.0, 5.0, 64.0, 100), seq_len=6, seed=0)
    data.export_bonn_format(synth, tmp_path, set_names=("A", "E"))
    x = data.load_bonn_set(tmp_path, "A", expected_len=6).sequences[:4]
    model = init_params(ModelConfig(variant=2, seq_len=6, hidden_sizes=(3, 2)), 0)
    probs, cache = model.forward(x, train=True, rng=np.random.default_rng(0))
    model.backward(cache, np.ones_like(probs))
    model.scores(x)
    assert len(layers.dropout_forward(np.ones(3), 0.5, np.random.default_rng(0))) == 2

    assert tracer.describe_errors == {}
    described = {}
    for name, *_, attrs in tracer.spans:
        described.setdefault(name, attrs)
    assert set(described) == set(spans.DESCRIBE)
    assert described["layers.lstm_forward"]["h"] == 3 and described["layers.lstm_backward"]["d"] == 3
    assert described["layers.Model.forward"] == {"train": True}
    assert described["layers.Model.scores"] == {"n": 4}
