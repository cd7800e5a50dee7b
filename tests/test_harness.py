import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from eeglstm.data import FoldSplit, ToneSpec, gen_synthetic, kfold_split
from eeglstm.errors import EegLstmError, ShapeError
from eeglstm.harness import (
    CURVES_HEADER,
    RESULTS_HEADER,
    FoldResult,
    aggregate_fold_metrics,
    evaluate,
    experiment_to_dict,
    fold_train_seed,
    results_row,
    run_experiment,
    train_model,
    write_curves_csv,
    write_experiment_json,
    write_results_csv,
)
from eeglstm.layers import Model, ModelConfig, init_params
from eeglstm.metrics import confusion_report
from eeglstm.optim import TrainConfig


def tiny_dataset(n_per_class=10, seq_len=32, seed=4):
    return gen_synthetic(
        ToneSpec(2.0, 1.0, 0.1), ToneSpec(10.0, 1.0, 0.1),
        n_per_class=n_per_class, seq_len=seq_len, sample_rate_hz=64.0, seed=seed,
    )


def tiny_config(seq_len=32, hidden=8):
    return ModelConfig(variant=1, seq_len=seq_len, hidden_sizes=(hidden,))


class TestTrainModel:
    def test_zero_epochs_returns_initialization(self):
        data = tiny_dataset()
        split = kfold_split(10, 1, seed=0)[0]
        tcfg = TrainConfig(epochs=0, seed=3)
        fold = train_model(tiny_config(), tcfg, split, data)
        assert fold.curves == []
        assert fold.best_epoch is None and fold.best_val_accuracy is None
        init_seed = int(np.random.SeedSequence(3).generate_state(2, dtype=np.uint64)[0])
        fresh = init_params(tiny_config(), init_seed)
        assert fold.best_params.tobytes() == fresh.params.tobytes()
        assert fold.val_report.total == len(split.val)

    def test_bit_identical_reruns(self):
        data = tiny_dataset()
        split = kfold_split(10, 1, seed=0)[0]
        tcfg = TrainConfig(epochs=3, seed=5)
        a = train_model(tiny_config(), tcfg, split, data)
        b = train_model(tiny_config(), tcfg, split, data)
        assert a.curves == b.curves
        assert a.best_params.tobytes() == b.best_params.tobytes()

    def test_empty_split_rejected(self):
        data = tiny_dataset()
        empty = FoldSplit(0, np.array([], dtype=int), np.arange(4), np.arange(4, 8))
        with pytest.raises(ValueError, match="train split"):
            train_model(tiny_config(), TrainConfig(epochs=1), empty, data)

    def test_out_of_range_indices_rejected(self):
        data = tiny_dataset()
        bad = FoldSplit(0, np.array([0, 99]), np.array([1]), np.array([2]))
        with pytest.raises(ValueError):
            train_model(tiny_config(), TrainConfig(epochs=1), bad, data)

    def test_non_finite_loss_stops_with_fold_epoch_and_batch(self):
        data = tiny_dataset()
        split = kfold_split(10, 1, seed=0)[0]

        def poison(indices):
            samples = data.samples.copy()
            samples[np.asarray(indices)] = np.nan
            return replace(data, samples=samples)

        with pytest.raises(EegLstmError, match="fold 0: non-finite training loss at epoch 1, batch 1"):
            train_model(tiny_config(), TrainConfig(epochs=2), split, poison(range(20)))
        with pytest.raises(EegLstmError, match="fold 0: non-finite validation loss at epoch 1"):
            train_model(tiny_config(), TrainConfig(epochs=2), split, poison(split.val))

    def test_best_checkpoint_is_max_val_accuracy_earliest_tie(self):
        data = tiny_dataset()
        split = kfold_split(10, 1, seed=1)[0]
        fold = train_model(tiny_config(), TrainConfig(epochs=5, seed=2), split, data)
        accs = [rec.val_accuracy for rec in fold.curves]
        assert fold.best_val_accuracy == max(accs)
        assert fold.best_epoch == accs.index(max(accs)) + 1

    def test_training_loss_decreases_on_separable_pair(self):
        # epoch-mean train loss strictly decreases over the first five epochs
        # for at least nine of ten seeds (slowish: ten real training runs)
        data = gen_synthetic(
            ToneSpec(2.0, 1.0, 0.1), ToneSpec(10.0, 1.0, 0.1),
            n_per_class=100, seq_len=128, sample_rate_hz=64.0, seed=0,
        )
        split = kfold_split(100, 1, seed=0)[0]
        wins = 0
        for seed in range(10):
            fold = train_model(
                ModelConfig(variant=1, seq_len=128),
                TrainConfig(epochs=5, seed=seed),
                split,
                data,
            )
            losses = [rec.train_loss for rec in fold.curves]
            wins += all(b < a for a, b in zip(losses, losses[1:]))
        assert wins >= 9


class TestEvaluate:
    def test_matches_confusion_report_on_scores(self):
        data = tiny_dataset()
        model = init_params(tiny_config(), 0)
        report, scores = evaluate(model, data)
        expected = confusion_report(scores, data.labels())
        assert report == expected
        assert scores.shape == (20,)

    def test_seq_len_mismatch(self):
        data = tiny_dataset(seq_len=16)
        model = init_params(tiny_config(seq_len=32), 0)
        with pytest.raises(ShapeError):
            evaluate(model, data)


class TestAggregation:
    def make_fold(self, idx, val_acc, precision):
        rep = confusion_report(np.array([0.9, 0.1]), np.array([1, 0]))
        rep = rep.__class__(**{**rep.to_dict(), "precision": precision})
        return FoldResult(idx, 1, val_acc, rep, rep, np.zeros(1), [])

    def test_means_over_folds(self):
        folds = [self.make_fold(0, 0.8, 0.5), self.make_fold(1, 1.0, 0.7)]
        agg = aggregate_fold_metrics(folds)
        assert agg["val_accuracy"] == pytest.approx(0.9)
        assert agg["precision"] == pytest.approx(0.6)
        assert agg["undefined_counts"] == {}

    def test_undefined_cells_skipped_and_annotated(self):
        folds = [self.make_fold(0, 0.8, None), self.make_fold(1, 1.0, 0.7)]
        agg = aggregate_fold_metrics(folds)
        assert agg["precision"] == pytest.approx(0.7)  # not dragged to 0.35
        assert agg["undefined_counts"] == {"precision": 1}

    def test_all_undefined_stays_undefined(self):
        folds = [self.make_fold(0, 0.8, None)]
        agg = aggregate_fold_metrics(folds)
        assert agg["precision"] is None
        assert agg["undefined_counts"] == {"precision": 1}


class TestRunExperiment:
    def test_single_fold_aggregate_equals_fold(self):
        data = tiny_dataset()
        result = run_experiment(data, 1, k=1, seed=3, tcfg=TrainConfig(epochs=2, seed=0))
        fold = result.folds[0]
        assert result.aggregate["val_accuracy"] == fold.best_val_accuracy
        assert result.aggregate["test_accuracy"] == fold.test_report.accuracy
        assert result.aggregate["auc"] == fold.test_report.auc

    def test_reported_val_accuracy_equals_curve_maximum(self):
        data = tiny_dataset()
        # with seed 5, fold 1 peaks at epoch 1 and ends lower, so a report
        # taken from the last epoch would differ
        for seed in (3, 5):
            result = run_experiment(data, 1, k=2, seed=seed, tcfg=TrainConfig(epochs=3, seed=0))
            assert result.curves == [fold.curves for fold in result.folds]
            for fold, split in zip(result.folds, kfold_split(data.n_per_class, 2, seed)):
                assert fold.best_val_accuracy == max(rec.val_accuracy for rec in fold.curves)
                assert fold.val_report.accuracy == fold.best_val_accuracy
                # the report built from the best epoch's own sweep equals a
                # fresh scoring of the best-epoch parameters on the val rows
                model = Model(ModelConfig(variant=1, seq_len=data.seq_len))
                model.params[...] = fold.best_params
                val = split.val
                assert fold.val_report == confusion_report(model.scores(data.samples[val]), data.labels()[val])

    def test_parallel_folds_match_sequential(self):
        data = tiny_dataset()
        tcfg = TrainConfig(epochs=2, seed=0)
        seq = run_experiment(data, 1, k=2, seed=5, tcfg=tcfg, jobs=1)
        par = run_experiment(data, 1, k=2, seed=5, tcfg=tcfg, jobs=2)
        assert experiment_to_dict(seq) == experiment_to_dict(par)

    def test_fold_seeds_are_stable_and_distinct(self):
        assert fold_train_seed(7, 0) == fold_train_seed(7, 0)
        assert fold_train_seed(7, 0) != fold_train_seed(7, 1)
        assert fold_train_seed(7, 0) != fold_train_seed(8, 0)


class TestArtifacts:
    @pytest.fixture
    def result(self):
        return run_experiment(tiny_dataset(), 1, k=2, seed=1, tcfg=TrainConfig(epochs=2, seed=0))

    def test_results_csv_format(self, result, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(path, [result])
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(RESULTS_HEADER)
        assert rows[1][0] == "syn0/syn1"
        assert rows[1][1] == "1"
        # percentages to two decimals, AUC to four
        assert rows[1][2].count(".") == 1 and len(rows[1][2].split(".")[1]) == 2
        assert len(rows[1][7].split(".")[1]) == 4

    def test_average_row(self, result, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(path, [result, result], include_average=True)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "average"
        assert rows[-1][2] == results_row(result)[2]

    def test_curves_csv_format(self, result, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, result.curves)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CURVES_HEADER)
        assert len(rows) == 1 + 2 * 2  # 2 folds x 2 epochs
        assert rows[1][0] == "0" and rows[1][1] == "1"
        float(rows[1][2]), float(rows[1][3]), float(rows[1][4])

    def test_json_sidecar_contents(self, result, tmp_path):
        path = tmp_path / "result.json"
        write_experiment_json(path, [result])
        doc = json.loads(path.read_text())
        assert doc["pair"] == "syn0/syn1"
        assert doc["model_variant"] == 1
        assert doc["train_config"]["batch_size"] == 4
        assert len(doc["per_fold"]) == 2
        assert doc["standardized"] is False
        assert {"accuracy", "auc", "tp"} <= set(doc["per_fold"][0]["test"])
        assert len(doc["curves"]) == 2

    def test_undefined_renders_as_na(self):
        fold = TestAggregation().make_fold(0, None, None)
        from eeglstm.harness import ExperimentResult, aggregate_fold_metrics

        res = ExperimentResult(
            pair=("a", "b"), variant=1, seq_len=8, k=1, seed=0, standardized=False,
            train_config=TrainConfig(), folds=[fold],
            aggregate=aggregate_fold_metrics([fold]),
        )
        row = results_row(res)
        assert row[2] == "NA" and row[6] == "NA"
