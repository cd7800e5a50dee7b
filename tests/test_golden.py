"""Golden training trajectory: two tiny seeded runs of `train_model` pinned
to the values the float64 numpy kernels produced when the test was written.

Under OpenBLAS the pinned values reproduce exactly, at one and at two BLAS
threads, so any change of the arithmetic fails here. Another BLAS may round
a product differently in the last digits; there every value must stay
within 1e-10 of its pin.
"""

import numpy as np
import pytest

from conftest import OPENBLAS
from eeglstm.data import SynthSpec, gen_synthetic, kfold_split
from eeglstm.harness import train_model
from eeglstm.layers import Model, ModelConfig
from eeglstm.optim import TrainConfig

GOLDEN_REL = 0.0 if OPENBLAS else 1e-10

# hidden sizes, dropout -> per-epoch (train loss, val loss, val accuracy),
# best epoch, and per block (sum, sum of squares) of the best-epoch params.
GOLDEN = {
    ((8,), 0.0): {
        "curves": [
            (0.7057181004292249, 0.6382710864117888, 0.5),
            (0.6228585116975162, 0.5585428083186821, 1.0),
            (0.5526682987939626, 0.4896061950186915, 1.0),
        ],
        "best_epoch": 2,
        "blocks": {
            "lstm1.kernel": (1.16987138280156, 1.9005557950322638),
            "lstm1.recurrent": (5.973045931258626, 33.184224355785645),
            "lstm1.bias": (8.293878037886326, 8.557684348309792),
            "dense.weights": (-1.4409225087345359, 2.2272561198960235),
            "dense.bias": (-0.0034196614674938852, 1.1694084552262432e-05),
        },
    },
    ((8, 4), 0.35): {
        "curves": [
            (0.730305381951287, 0.6463495990853265, 0.5),
            (0.6878751556554088, 0.5914373693558248, 0.75),
            (0.6346518745233276, 0.5446138278846924, 1.0),
        ],
        "best_epoch": 3,
        "blocks": {
            "lstm1.kernel": (1.7480236011212031, 1.8080984677481786),
            "lstm1.recurrent": (3.245482962595644, 34.00772909690498),
            "lstm1.bias": (7.865909423918607, 8.524150983493143),
            "lstm2.kernel": (-6.4441853697524145, 12.004783633539773),
            "lstm2.recurrent": (-0.9139935780013688, 15.391290155824723),
            "lstm2.bias": (3.691221991225712, 4.010962285828054),
            "dense.weights": (-0.4242686636352424, 1.881089166670611),
            "dense.bias": (0.0035778756659962797, 1.2801194281328323e-05),
        },
    },
}


def close(actual, expected):
    return actual == pytest.approx(expected, rel=GOLDEN_REL, abs=0.0)


@pytest.mark.parametrize("hidden,dropout", list(GOLDEN), ids=["model1", "model2"])
def test_golden_trajectory(hidden, dropout):
    golden = GOLDEN[(hidden, dropout)]
    data = gen_synthetic(SynthSpec(2.0, 4.0, 1.0, 0.5, 64.0, 10), seq_len=32, seed=4)
    split = kfold_split(10, 1, seed=0)[0]
    config = ModelConfig(variant=len(hidden), seq_len=32, hidden_sizes=hidden)
    assert config.dropout_prob == dropout
    outcome = train_model(config, TrainConfig(learning_rate=1e-2, epochs=3, seed=2), split, data)

    got = [(r.train_loss, r.val_loss, r.val_accuracy) for r in outcome.curves]
    assert len(got) == len(golden["curves"])
    for epoch, (row, expected) in enumerate(zip(got, golden["curves"]), start=1):
        assert all(close(a, e) for a, e in zip(row, expected)), f"epoch {epoch}: {row} != {expected}"
    assert outcome.best_epoch == golden["best_epoch"]

    blocks = Model(config).blocks(outcome.best_params)
    assert list(blocks) == list(golden["blocks"])
    for name, block in blocks.items():
        stats = (float(block.sum()), float((block * block).sum()))
        assert all(close(a, e) for a, e in zip(stats, golden["blocks"][name])), f"{name}: {stats}"
