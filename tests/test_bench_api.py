"""The dataset and harness calls that bench/run.py makes, on a tiny on-disk
corpus. The benchmark scripts are kept unchanged across refactors, so a change
that breaks one of these calls fails here, not only in a benchmark run."""

from dataclasses import replace

import numpy as np

from eeglstm import data, harness
from eeglstm.layers import ModelConfig, init_params
from eeglstm.optim import TrainConfig


def test_benchmark_dataset_and_harness_calls(tmp_path, monkeypatch):
    synth = data.gen_synthetic(
        data.ToneSpec(2.0, 40.0, 5.0), data.ToneSpec(10.0, 40.0, 5.0),
        n_per_class=100, seq_len=16, sample_rate_hz=64.0, seed=0,
    )
    data.export_bonn_format(synth, tmp_path, set_names=("A", "E"))
    first, second = (data.load_bonn_set(tmp_path, s, expected_len=16) for s in ("A", "E"))
    first, second = (replace(rs, sequences=rs.sequences[:20]) for rs in (first, second))
    dataset = data.standardize_dataset(data.make_pair_dataset(first, second))
    assert len(dataset.samples) == 40

    idx = np.array([0, 1, 38, 39])
    x = dataset.values()[idx]
    y = dataset.labels()[idx].astype(np.float64)
    assert x.shape == (4, 16) and list(y) == [0.0, 0.0, 1.0, 1.0]

    model = init_params(ModelConfig(variant=1, seq_len=16), 0)
    report, scores = harness.evaluate(model, dataset)
    assert report.total == 40 and scores.shape == (40,)

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
