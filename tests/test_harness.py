import csv
import json
import os
import time
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eeglstm import harness
from eeglstm.checkpoint import load_checkpoint
from eeglstm.data import FoldSplit, SynthSpec, gen_synthetic, kfold_split
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
    write_results_csv,
    write_run,
)
from eeglstm.layers import Model, ModelConfig, init_params
from eeglstm.metrics import confusion_report
from eeglstm.optim import TrainConfig


def tiny_dataset(n_per_class=10, seq_len=32, seed=4):
    return gen_synthetic(SynthSpec(2.0, 10.0, 1.0, 0.1, 64.0, n_per_class), seq_len=seq_len, seed=seed)


def tiny_config(seq_len=32, hidden=8):
    return ModelConfig(variant=1, seq_len=seq_len, hidden_sizes=(hidden,))


@pytest.fixture
def two_cpus(monkeypatch):
    """harness.evaluate sees two CPUs in its affinity mask, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def worker_counts(monkeypatch):
    """The worker count of every map_in_workers call, which still runs."""
    counts, real = [], harness.map_in_workers

    def counted(fn, arg_tuples, workers, what):
        counts.append(workers)
        return real(fn, arg_tuples, workers, what)

    monkeypatch.setattr(harness, "map_in_workers", counted)
    return counts


def _record_pid_then(action, directory):
    """A worker task: publish this process's id as directory/action, then
    sleep (action "sleep") or, once the sleeper has published, raise."""
    tmp = Path(directory, f"{action}.tmp")
    tmp.write_text(str(os.getpid()))
    tmp.rename(Path(directory, action))
    if action == "sleep":
        time.sleep(60)
    deadline = time.monotonic() + 30
    while not Path(directory, "sleep").exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    raise ValueError(f"{action} worker raised")


def assert_exited(pid):
    """The process is gone and reaped: not even a zombie is left to signal."""
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


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

    def test_no_model_cache_outlives_its_batch(self, monkeypatch):
        # A step's forward must not run beside the previous batch's BPTT cache.
        real, caches = Model.forward, []

        def forward(self, *args, **kwargs):
            alive = sum(ref() is not None for ref in caches)
            assert alive == 0, f"{alive} earlier ModelCache alive"
            probs, cache = real(self, *args, **kwargs)
            caches.append(weakref.ref(cache))
            return probs, cache

        monkeypatch.setattr(Model, "forward", forward)
        split = kfold_split(10, 1, seed=0)[0]
        config = ModelConfig(variant=2, seq_len=16, hidden_sizes=(6, 4))
        train_model(config, TrainConfig(epochs=2, batch_size=4, seed=1), split, tiny_dataset(seq_len=16))
        assert len(caches) == 2 * 4  # 2 epochs of 4 batches over 14 training rows

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
        data = gen_synthetic(SynthSpec(2.0, 10.0, 1.0, 0.1, 64.0, 100), seq_len=128, seed=0)
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

    def test_seq_len_mismatch(self, two_cpus):
        data = tiny_dataset(seq_len=16)  # one chunk, scored in this process
        model = init_params(tiny_config(seq_len=32), 0)
        with pytest.raises(ShapeError, match="sequence length 16 != configured 32"):
            evaluate(model, data)

    def test_seq_len_mismatch_in_workers(self, two_cpus):
        data = tiny_dataset(n_per_class=50, seq_len=16)  # three chunks, scored in two workers
        model = init_params(tiny_config(seq_len=32), 0)
        with pytest.raises(ShapeError, match="sequence length 16 != configured 32"):
            evaluate(model, data)

    @pytest.mark.parametrize("variant", [1, 2])
    def test_workers_give_the_serial_scores_bit_for_bit(self, variant, two_cpus, worker_counts):
        config = ModelConfig(variant=variant, seq_len=16, hidden_sizes=(8, 4)[:variant])
        model = init_params(config, variant)
        rng = np.random.default_rng(variant)
        sizes = (1, 2, 40, 41, 80, 81, 121, 200)
        for n in sizes:
            x = rng.standard_normal((n, 16))
            _, scores = evaluate(model, SimpleNamespace(samples=x, labels=lambda: np.arange(n) % 2))
            assert scores.tobytes() == model.scores(x).tobytes(), n
        # 1 to 41 rows are one chunk or less, scored here; 80 and more are two to five chunks
        assert worker_counts == [2, 2, 2, 2]

    def test_every_cpu_where_the_platform_has_no_affinity_mask(self, monkeypatch, worker_counts):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        model = init_params(tiny_config(seq_len=16), 0)
        x = np.random.default_rng(0).standard_normal((81, 16))
        _, scores = evaluate(model, SimpleNamespace(samples=x, labels=lambda: np.arange(81) % 2))
        assert scores.tobytes() == model.scores(x).tobytes() and worker_counts == [2]


class TestMapInWorkers:
    def test_workers_run_one_blas_thread_and_leave_the_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        seen = harness.map_in_workers(os.getenv, [(var,) for var in harness.BLAS_THREAD_VARS], 2, "a test worker")
        assert seen == ["1", "1", "1"]
        assert dict(os.environ) == before

    def test_tasks_run_here_where_pipes_cannot_be_inherited(self, monkeypatch):
        monkeypatch.setattr(harness.os, "name", "nt")
        pids = harness.map_in_workers(os.getpid, [(), ()], 2, "a test worker")
        monkeypatch.undo()
        assert pids == [os.getpid()] * 2

    def test_results_keep_task_order(self):
        assert harness.map_in_workers(divmod, [(n, 3) for n in range(7)], 3, "a test worker") == [divmod(n, 3) for n in range(7)]

    def test_no_worker_outlives_a_return(self):
        pids = harness.map_in_workers(os.getpid, [(), ()], 2, "a test worker")
        assert len(set(pids)) == 2 and os.getpid() not in pids
        for pid in pids:
            assert_exited(pid)

    def test_no_worker_outlives_a_raise(self, tmp_path):
        start = time.monotonic()
        with pytest.raises(ValueError, match="^raise worker raised$"):
            harness.map_in_workers(_record_pid_then, [("raise", tmp_path), ("sleep", tmp_path)], 2, "a test worker")
        assert time.monotonic() - start < 30  # the sleeping worker was killed, not waited for
        for action in ("raise", "sleep"):
            assert_exited(int((tmp_path / action).read_text()))


class TestAggregation:
    def make_fold(self, idx, val_acc, precision):
        rep = confusion_report(np.array([0.9, 0.1]), np.array([1, 0]))
        rep = replace(rep, precision=precision)
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

    def test_jobs_start_at_most_one_worker_per_fold(self, monkeypatch):
        started = []

        def recording_map(fn, arg_tuples, workers, what):
            """Runs tasks in this process and records the worker count asked for."""
            started.append(workers)
            return [fn(*args) for args in arg_tuples]

        monkeypatch.setattr(harness, "map_in_workers", recording_map)
        tcfg = TrainConfig(epochs=1, seed=0)
        run_experiment(tiny_dataset(), 1, k=2, seed=5, tcfg=tcfg, jobs=100000)
        run_experiment(tiny_dataset(), 1, k=1, seed=5, tcfg=tcfg, jobs=100000)
        assert started == [2]

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
        write_results_csv(path, [result, result])
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
        write_run(tmp_path, [result])
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["pair"] == "syn0/syn1"
        assert doc["model_variant"] == 1
        assert doc["train_config"]["batch_size"] == 4
        assert len(doc["per_fold"]) == 2
        assert doc["standardized"] is False
        assert {"accuracy", "auc", "tp"} <= set(doc["per_fold"][0]["test"])
        assert len(doc["curves"]) == 2

    def test_checkpoint_holds_the_best_fold(self, result, tmp_path):
        # ties on validation accuracy keep the lowest fold index
        for fold, acc in zip(result.folds, (0.5, 0.75)):
            fold.best_val_accuracy = acc
        table, paths = write_run(tmp_path / "run", [result])
        assert [p.name for p in paths] == ["results.csv", "curves.csv", "result.json", "checkpoint.json"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(p.name for p in paths)
        assert paths[0].read_text() == table
        for text in (p.read_bytes() for p in paths):
            assert b"\r" not in text and text.endswith(b"\n") and text.isascii()
        model, meta = load_checkpoint(paths[3])
        assert model.params.tobytes() == result.folds[1].best_params.tobytes()
        assert meta == {
            "standardized": False,
            "provenance": {"seed": 1, "fold_index": 1, "epoch": result.folds[1].best_epoch, "val_accuracy": 0.75},
        }
        result.folds[1].best_val_accuracy = 0.5
        write_run(tmp_path / "tie", [result])
        model, meta = load_checkpoint(tmp_path / "tie" / "checkpoint.json")
        assert model.params.tobytes() == result.folds[0].best_params.tobytes()
        assert meta["provenance"]["fold_index"] == 0

    def test_grid_writes_curves_per_pair_and_no_checkpoint(self, result, tmp_path):
        other = replace(result, pair=("B", "E"))
        table, paths = write_run(tmp_path, [result, other])
        assert [p.name for p in paths] == ["results.csv", "curves_syn0_syn1.csv", "curves_B_E.csv", "results.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
        assert table.splitlines()[-1].startswith("average,")
        doc = json.loads(paths[3].read_text())
        assert [d["pair"] for d in doc] == ["syn0/syn1", "B/E"]

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
