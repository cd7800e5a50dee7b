import json
import os
import signal
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from eeglstm import checkpoint, harness
from eeglstm.checkpoint import save_checkpoint
from eeglstm.cli import main
from eeglstm.data import SynthSpec, gen_synthetic, export_bonn_format
from eeglstm.layers import Model, ModelConfig, init_params
from eeglstm.metrics import MetricsReport


def run(argv):
    return main(argv)


# Workers are fresh interpreters that import this module anew, so the test
# process's id reaches them through the environment (see in_test_process).
TEST_PROCESS_VAR = "EEGLSTM_TEST_PROCESS"
_train_model = harness.train_model


@pytest.fixture
def in_test_process(monkeypatch):
    """Publish the test process's id to the workers it starts."""
    monkeypatch.setenv(TEST_PROCESS_VAR, str(os.getpid()))


def _kill_own_process(*args):
    """A worker that dies as an out-of-memory kill would end it."""
    assert os.getpid() != int(os.environ[TEST_PROCESS_VAR]), "ran in the test process, not in a worker"
    os.kill(os.getpid(), signal.SIGKILL)


class _ModelThatDiesScoring(Model):
    def scores(self, x):
        _kill_own_process()


def _fold_one_diverges(config, tcfg, split, data):
    """train_model, with every recording NaN in fold 1, which then stops on a non-finite loss."""
    if split.fold_index == 1:
        data = replace(data, samples=np.full_like(data.samples, np.nan))
    return _train_model(config, tcfg, split, data)


def _every_fold_diverges_fold_0_last(config, tcfg, split, data):
    """train_model with every recording NaN, so every fold stops on a non-finite loss; fold 0 starts 2 s late."""
    if split.fold_index == 0:
        time.sleep(2)
    return _train_model(config, tcfg, split, replace(data, samples=np.full_like(data.samples, np.nan)))


def model1_checkpoint(path):
    """An untrained model-1 checkpoint at T=32, written without training."""
    save_checkpoint(path, init_params(ModelConfig(variant=1, seq_len=32, hidden_sizes=(4,)), 0))
    return path


SMALL_TRAIN = [
    "train", "--synthetic", "default", "--seq-len", "32", "--folds", "2",
    "--epochs", "2", "--seed", "3",
]


class TestUsageErrors:
    def test_no_data_source_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train"])
        assert exc.value.code == 2

    def test_data_without_pair_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_pair_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(tmp_path), "--pair", "A,Q"])
        assert exc.value.code == 2

    def test_both_sources_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(tmp_path), "--pair", "A,E", "--synthetic"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_synthetic_key(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--synthetic", "warble=3"])
        assert exc.value.code == 2

    def test_negative_seed_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(SMALL_TRAIN[:-1] + ["-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (SMALL_TRAIN + ["--folds", "0"], "--folds"),
            (SMALL_TRAIN + ["--batch", "0"], "--batch"),
            (SMALL_TRAIN + ["--jobs", "0"], "--jobs"),
            (SMALL_TRAIN + ["--lr", "nan"], "--lr"),
            (SMALL_TRAIN + ["--lr", "inf"], "--lr"),
            (SMALL_TRAIN + ["--lr", "0"], "--lr"),
            (SMALL_TRAIN + ["--epochs", "-1"], "--epochs"),
            (["train", "--synthetic", "n=15"], "--synthetic"),
            (["train", "--synthetic", "n=0"], "--synthetic"),
            (["reproduce", "--data", "corpus", "--folds", "0"], "--folds"),
            (["gen-synth", "--spec", "n=15"], "--spec"),
            (SMALL_TRAIN[:4] + ["-5"], "--seq-len"),
            (SMALL_TRAIN[:4] + ["0"], "--seq-len"),
            (["reproduce", "--data", "corpus", "--seq-len", "0"], "--seq-len"),
            (["gen-synth", "--seq-len", "-1"], "--seq-len"),
            (["train", "--synthetic", "rate=0"], "--synthetic"),
            (["train", "--synthetic", "rate=nan"], "--synthetic"),
            (["train", "--synthetic", "f0=-1"], "--synthetic"),
            (["gen-synth", "--spec", "noise=-1"], "--spec"),
            (["gradcheck", "--hidden", "-1"], "--hidden"),
            (["gradcheck", "--hidden", "0"], "--hidden"),
            (["gradcheck", "--steps", "-3"], "--steps"),
            (["evaluate", "--checkpoint", "ckpt.json", "--synthetic", "--threshold", "nan"], "--threshold"),
            (["evaluate", "--checkpoint", "ckpt.json", "--synthetic", "--threshold", "inf"], "--threshold"),
            (["gen-synth", "--spec", "amp=1e308,noise=1e308"], "--spec"),
            (["train", "--synthetic", "amp=1e308,noise=1e308"], "--synthetic"),
            (["gen-synth", "--spec", "n=10"], "--spec"),
            # --model names the variant of one train run; reproduce fixes each pair's variant
            (["reproduce", "--data", "corpus", "--model", "2"], "--model"),
            # evaluate reads the recording length from the checkpoint
            (["evaluate", "--checkpoint", "ckpt.json", "--synthetic", "--seq-len", "20"], "--seq-len"),
            # the grid draws from one fixed seed
            (["gradcheck", "--seed", "1"], "--seed"),
        ],
    )
    def test_bad_value_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,key",
        [
            (["gen-synth", "--spec", "f0=1,f0=3", "--seq-len", "4"], "--spec", "'f0'"),
            (["train", "--synthetic", "n=20, n=20"], "--synthetic", "'n'"),
        ],
    )
    def test_repeated_synthetic_key_exits_2_naming_it(self, argv, flag, key, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and key in err

    def test_train_pair_with_synthetic_exits_2_naming_it(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(SMALL_TRAIN + ["--pair", "A,E", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--pair" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_evaluate_pair_with_synthetic_exits_2_naming_it(self, tmp_path, capsys):
        # a readable checkpoint, so only the flags can fail
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--checkpoint", str(out / "checkpoint.json"), "--synthetic", "n=10", "--pair", "A,E"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--pair" in captured.err
        assert "== evaluate ==" not in captured.out

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--data", "corpus", "--synthetic"], "--data"),
            (["--data", "corpus"], "--pair"),
            (["--synthetic", "warble=3"], "--synthetic"),
        ],
    )
    def test_evaluate_checks_flags_before_the_checkpoint(self, flags, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--checkpoint", str(tmp_path / "missing.json"), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "checkpoint" not in err


class TestDataErrors:
    def test_missing_corpus_is_runtime_error(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nowhere"), "--pair", "A,E"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAllocationErrors:
    """A length no array can hold fails as one line with exit 1, naming no flag given correctly."""

    def test_train_length_beyond_memory(self, capsys):
        assert run(SMALL_TRAIN[:4] + [str(10**15)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("seq_len", [10**15, 10**30])
    def test_evaluate_length_from_checkpoint(self, seq_len, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        path = out / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["model"]["seq_len"] = seq_len
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["evaluate", "--checkpoint", str(path), "--synthetic", "default"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "--synthetic" not in err


class TestDeadWorker:
    def test_dead_fold_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys, in_test_process):
        # run_experiment sends the patched module attribute to its workers by name
        monkeypatch.setattr(harness, "train_model", _kill_own_process)
        argv = ["train", "--synthetic", "default", "--seq-len", "16", "--folds", "2", "--jobs", "2"]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pair syn0/syn1: a fold worker died") and err.count("\n") == 1
        assert "out-of-memory" in err and "Traceback" not in err

    def test_dead_scoring_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys, in_test_process):
        real = checkpoint.load_checkpoint

        def load(*args, **kwargs):
            model, meta = real(*args, **kwargs)
            model.__class__ = _ModelThatDiesScoring  # pickled by reference into each worker
            return model, meta

        monkeypatch.setattr(checkpoint, "load_checkpoint", load)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = ["evaluate", "--checkpoint", str(model1_checkpoint(tmp_path / "ckpt.json")), "--synthetic", "n=50"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a scoring worker died") and err.count("\n") == 1
        assert "out-of-memory" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "train_model, fold", [(_fold_one_diverges, 1), (_every_fold_diverges_fold_0_last, 0)]
    )
    def test_fold_error_in_a_worker_is_the_line_of_jobs_1(self, train_model, fold, tmp_path, monkeypatch, capsys):
        # with two failing folds, the lowest fold's line is printed even though fold 1's worker fails first
        monkeypatch.setattr(harness, "train_model", train_model)
        argv = ["train", "--synthetic", "default", "--seq-len", "16", "--folds", "2"]
        errs = []
        for jobs in ("1", "2"):
            assert run(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"error: fold {fold}: non-finite training loss at epoch 1, batch 1\n"


class TestTrain:
    def test_out_that_is_a_file_fails_before_training(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although --out cannot be created")

        monkeypatch.setattr(harness, "run_experiment", no_training)
        out = tmp_path / "taken"
        out.write_text("")
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_synthetic_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(SMALL_TRAIN + ["--out", str(out)])
        assert code == 0
        names = ["results.csv", "curves.csv", "result.json", "checkpoint.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        printed = capsys.readouterr().out
        assert printed.endswith(f"wrote {', '.join(str(out / name) for name in names)}\n")
        assert "== train ==" in printed
        assert "learning_rate = 0.001" in printed  # effective config echoed
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "pair,model,val_acc,test_acc,sensitivity,specificity,precision,auc"
        assert (out / "results.csv").read_text() in printed

    def test_checkpoint_is_loadable_and_evaluable(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        code = run([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--synthetic", "default", "--seed", "3",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_evaluate_out_writes_the_printed_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        capsys.readouterr()
        code = run([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--synthetic", "default", "--seed", "3", "--out", str(tmp_path / "ev"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        text = (tmp_path / "ev" / "metrics.json").read_text()
        doc = json.loads(text)
        assert list(doc) == [f.name for f in fields(MetricsReport)]
        for key, value in doc.items():
            assert f"  {key} = {value}\n" in printed
        assert text == json.dumps(doc, indent=2) + "\n"
        assert text.startswith('{\n  "') and not text.endswith("\n\n")

    def test_evaluate_out_that_is_a_file_fails_before_scoring(self, tmp_path, monkeypatch, capsys):
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored although --out cannot be created")

        monkeypatch.setattr(harness, "evaluate", no_scoring)
        out = tmp_path / "taken"
        out.write_text("")
        argv = ["evaluate", "--checkpoint", str(model1_checkpoint(tmp_path / "ckpt.json")), "--synthetic", "n=10"]
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_evaluate_rejects_a_block_the_layout_does_not_name(self, tmp_path, capsys):
        path = model1_checkpoint(tmp_path / "ckpt.json")
        doc = json.loads(path.read_text())
        doc["params"]["lstm2.kernel"] = {"shape": [4, 16], "data": [0.0] * 64}
        path.write_text(json.dumps(doc))
        assert run(["evaluate", "--checkpoint", str(path), "--synthetic", "n=10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lstm2.kernel") and err.count("\n") == 1

    def test_evaluate_variant_check(self, tmp_path):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        code = run([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"), "--model", "2",
            "--synthetic", "default",
        ])
        assert code == 1  # variant mismatch is a load error

    def test_train_on_exported_corpus(self, tmp_path):
        # the loader expects exactly 100 files per set
        ds = gen_synthetic(SynthSpec(2, 10, 500, 20, 64.0, 100), 24, seed=1)
        export_bonn_format(ds, tmp_path / "corpus", set_names=("A", "E"))
        out = tmp_path / "run"
        code = run([
            "train", "--data", str(tmp_path / "corpus"), "--pair", "A,E",
            "--seq-len", "24", "--folds", "1", "--epochs", "1", "--standardize",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["standardized"] is True
        assert doc["pair"] == "A/E"


class TestGenSynth:
    def test_writes_loadable_corpus(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = run([
            "gen-synth", "--spec", "amp=300,noise=10", "--seq-len", "4097",
            "--out", str(out), "--seed", "5",
        ])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["A", "E"]
        assert len(list((out / "A").glob("*.txt"))) == 100
        from eeglstm.data import load_bonn_set

        rec = load_bonn_set(out, "A")  # the loader's defaults: 100 files of 4097 lines
        assert len(rec.sequences) == 100


class TestGradcheckCommand:
    def test_small_run_exits_zero(self, capsys):
        code = run(["gradcheck", "--hidden", "4", "--steps", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gradcheck: ok" in out
        assert "  seed = 0\n" in out
        assert "lstm1.recurrent" in out

    def test_sized_run_contract(self, capsys):
        code = run(["gradcheck", "--hidden", "8", "--steps", "20", "--model", "1"])
        assert code == 0

    def test_perturbed_backward_exits_one(self, corrupt_kernel_gradient, capsys):
        code = run(["gradcheck", "--hidden", "4", "--steps", "5", "--model", "1"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestReproduce:
    def test_requires_data_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["reproduce"])
        assert exc.value.code == 2

    def test_runs_on_tiny_surrogate_corpus(self, tmp_path, capsys):
        # five sets named A-E (100 files each) so every pair in the grid resolves
        amps = {"A": 200, "B": 220, "C": 240, "D": 800, "E": 1200}
        for name, amp in amps.items():
            ds = gen_synthetic(SynthSpec(2, 9, amp, 10, 64.0, 100), 16, seed=ord(name))
            export_bonn_format(ds, tmp_path / "corpus", set_names=(name, name + "_unused"))
        out = tmp_path / "rep"
        code = run([
            "reproduce", "--data", str(tmp_path / "corpus"), "--seq-len", "16",
            "--folds", "1", "--epochs", "1", "--standardize", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 6 + 1  # header, six pairs, average
        assert rows[-1].startswith("average,")
        assert (out / "results.csv").read_text() in capsys.readouterr().out
        curves = [f"curves_{x}_{y}.csv" for x, y, _ in harness.TABLE_PAIRS]
        assert sorted(p.name for p in out.iterdir()) == sorted(["results.csv", "results.json", *curves])

    def test_missing_set_fails_before_training(self, tmp_path, capsys):
        # a corpus of A and E only: pair A/E could train, but B is missing
        ds = gen_synthetic(SynthSpec(2, 9, 200, 10, 64.0, 100), 16, seed=0)
        export_bonn_format(ds, tmp_path / "corpus", set_names=("A", "E"))
        out = tmp_path / "rep"
        code = run([
            "reproduce", "--data", str(tmp_path / "corpus"), "--seq-len", "16",
            "--folds", "1", "--epochs", "1", "--out", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no directory for set B") and captured.err.count("\n") == 1
        assert "pair A/E" not in captured.out
        assert not (out / "results.csv").exists()
