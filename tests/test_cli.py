import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from eeglstm import BLAS_THREAD_VARS, checkpoint, harness
from eeglstm.checkpoint import save_checkpoint
from eeglstm.cli import main
from eeglstm.data import SynthSpec, gen_synthetic, export_bonn_format, standardize_dataset
from eeglstm.layers import Model, ModelConfig, init_params
from eeglstm.metrics import MetricsReport, confusion_report
from eeglstm.optim import TrainConfig


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
TRAIN_CONFIG_KEYS = [f.name for f in fields(TrainConfig)]


def echo_keys(printed, title):
    """The keys of the config echo under `== title ==` in a command's stdout, in order."""
    lines = printed.splitlines()
    block = itertools.takewhile(lambda line: line.startswith("  "), lines[lines.index(f"== {title} ==") + 1 :])
    return [line.split(" = ", 1)[0].strip() for line in block]


def grid_corpus(root):
    """Five sets named A-E (100 files each, T=16), so every pair in reproduce's grid resolves."""
    for name, amp in {"A": 200, "B": 220, "C": 240, "D": 800, "E": 1200}.items():
        ds = gen_synthetic(SynthSpec(2, 9, amp, 10, 64.0, 100), 16, seed=ord(name))
        export_bonn_format(ds, root, set_names=(name, name + "_unused"))
    return root


# Each command that writes files, as the arguments before --out, given a directory for its inputs.
WRITING_COMMANDS = {
    "train": lambda tmp: SMALL_TRAIN,
    "reproduce": lambda tmp: [
        "reproduce", "--data", str(grid_corpus(tmp / "corpus")), "--seq-len", "16", "--folds", "2", "--epochs", "1"
    ],
    "evaluate": lambda tmp: ["evaluate", "--checkpoint", str(model1_checkpoint(tmp / "ckpt.json")), "--synthetic", "n=10"],
    "gen-synth": lambda tmp: ["gen-synth"],
}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_every_file_a_command_writes_goes_through_the_writer(command, tmp_path, monkeypatch):
    argv = WRITING_COMMANDS[command](tmp_path) + ["--out", str(tmp_path / "out")]
    written, real_replace = [], os.replace

    def record(src, dst):
        written.append(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", record)  # data.write_ascii's last step
    assert run(argv) == 0
    assert written and sorted(written) == sorted(p for p in (tmp_path / "out").rglob("*") if p.is_file())
    for text in (path.read_bytes() for path in written):
        assert text.isascii() and b"\r" not in text and text.endswith(b"\n")


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
            # a spec that could overflow is a usage error before the checkpoint is read
            (["evaluate", "--checkpoint", "missing.json", "--synthetic", "amp=1e308,noise=1e308"], "--synthetic"),
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
    def test_dead_fold_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys, in_test_process, two_cpus):
        # run_experiment sends the patched module attribute to its workers by name
        monkeypatch.setattr(harness, "train_model", _kill_own_process)
        argv = ["train", "--synthetic", "default", "--seq-len", "16", "--folds", "2"]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pair syn0/syn1: a fold worker died") and err.count("\n") == 1
        assert "out-of-memory" in err and "Traceback" not in err

    def test_dead_scoring_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys, in_test_process, two_cpus):
        real = checkpoint.load_checkpoint

        def load(*args, **kwargs):
            model, meta = real(*args, **kwargs)
            model.__class__ = _ModelThatDiesScoring  # pickled by reference into each worker
            return model, meta

        monkeypatch.setattr(checkpoint, "load_checkpoint", load)
        argv = ["evaluate", "--checkpoint", str(model1_checkpoint(tmp_path / "ckpt.json")), "--synthetic", "n=50"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a scoring worker died") and err.count("\n") == 1
        assert "out-of-memory" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "train_model, fold", [(_fold_one_diverges, 1), (_every_fold_diverges_fold_0_last, 0)]
    )
    def test_fold_error_in_a_worker_is_the_line_of_jobs_1(self, train_model, fold, tmp_path, monkeypatch, capsys):
        # with two failing folds, the lowest fold's line is printed even though fold 1's worker fails first;
        # one CPU trains both folds in this process, as jobs=1 does, two CPUs in two workers
        monkeypatch.setattr(harness, "train_model", train_model)
        argv = ["train", "--synthetic", "default", "--seq-len", "16", "--folds", "2"]
        errs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert run(argv + ["--out", str(tmp_path / str(len(cpus)))]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"error: fold {fold}: non-finite training loss at epoch 1, batch 1\n"


class TestTrain:
    def test_folds_train_on_one_worker_per_cpu_at_most_one_per_fold(self, tmp_path, monkeypatch, worker_counts):
        argv = ["train", "--synthetic", "default", "--seq-len", "16", "--epochs", "1"]
        for cpus, folds in (({0, 1, 2}, 2), ({0}, 2), ({0, 1}, 1)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert run(argv + ["--folds", str(folds), "--out", str(tmp_path / f"{len(cpus)}-{folds}")]) == 0
        assert worker_counts == [2, 0, 0]

    def test_artifacts_are_the_same_bits_at_any_blas_thread_count(self, tmp_path):
        # T=3000 is the shortest length found at which a training step's weight-gradient products round
        # differently on one and on two OpenBLAS threads; a CLI run computes on one whatever its environment says
        argv = [sys.executable, "-m", "eeglstm", "train", "--synthetic", "n=10", "--seq-len", "3000"]
        argv += ["--folds", "1", "--epochs", "1", "--seed", "7"]
        src = str(Path(harness.__file__).parents[1])
        artifacts = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(BLAS_THREAD_VARS, threads)}
            subprocess.run(argv + ["--out", str(tmp_path / threads)], env=env, check=True, stdout=subprocess.DEVNULL)
            artifacts.append({path.name: path.read_bytes() for path in (tmp_path / threads).iterdir()})
        assert len(artifacts[0]) == 4 and artifacts[0] == artifacts[1]

    def test_out_that_is_a_file_fails_before_training(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although --out cannot be created")

        monkeypatch.setattr(harness, "run_experiment", no_training)
        out = tmp_path / "taken"
        out.write_text("")
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_config_echo_keys_in_order(self, tmp_path, capsys):
        assert run(SMALL_TRAIN + ["--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("== train ==\n")
        keys = ["source", "pair", "model", "folds", "seq_len", "standardize", "out"]
        assert echo_keys(printed, "train") == keys + TRAIN_CONFIG_KEYS

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
            "--synthetic", "noise=1", "--seed", "3",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_evaluate_out_writes_the_printed_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        capsys.readouterr()
        # SMALL_TRAIN's checkpoint scores the default corpus perfectly, and this noisier one not (tp 79, fn 21)
        code = run([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--synthetic", "noise=1", "--seed", "3", "--out", str(tmp_path / "ev"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        text = (tmp_path / "ev" / "metrics.json").read_text()
        doc = json.loads(text)
        model, _ = checkpoint.load_checkpoint(out / "checkpoint.json")
        data = gen_synthetic(SynthSpec(noise=1.0), 32, 3)
        # one Model.scores call over every recording is a reference that shares no code with evaluate's chunks
        reference = confusion_report(model.scores(data.samples), data.labels())
        assert doc == asdict(harness.evaluate(model, data)[0]) == asdict(reference)
        assert list(doc) == [f.name for f in fields(MetricsReport)]
        for key, value in doc.items():
            assert f"  {key} = {value}\n" in printed
        assert text == json.dumps(doc, indent=2) + "\n"
        assert text.startswith('{\n  "') and not text.endswith("\n\n")

    def test_evaluate_standardizes_as_the_checkpoint_was_trained(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--standardize", "--out", str(out)]) == 0
        capsys.readouterr()
        # the checkpoint scores the default corpus perfectly with or without standardization, and this
        # noisier one differently: tp 94, tn 96, auc 0.9874 standardized, against 89, 97, 0.9833 raw
        argv = ["evaluate", "--checkpoint", str(out / "checkpoint.json"), "--synthetic", "noise=1", "--seed", "3"]
        assert run(argv + ["--out", str(tmp_path / "ev")]) == 0
        assert "  standardize = True\n" in capsys.readouterr().out
        model, _ = checkpoint.load_checkpoint(out / "checkpoint.json")
        data = standardize_dataset(gen_synthetic(SynthSpec(noise=1.0), 32, 3))
        # one Model.scores call over every standardized recording shares no code with evaluate's chunks
        reference = confusion_report(model.scores(data.samples), data.labels())
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc == asdict(harness.evaluate(model, data)[0]) == asdict(reference)

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

    def test_runs_on_tiny_surrogate_corpus(self, tmp_path, capsys, monkeypatch):
        # five sets named A-E (100 files each) so every pair in the grid resolves
        amps = {"A": 200, "B": 220, "C": 240, "D": 800, "E": 1200}
        for name, amp in amps.items():
            ds = gen_synthetic(SynthSpec(2, 9, amp, 10, 64.0, 100), 16, seed=ord(name))
            export_bonn_format(ds, tmp_path / "corpus", set_names=(name, name + "_unused"))
        out = tmp_path / "rep"
        seen, real = [], harness.run_experiment

        def run_experiment(*args, jobs):
            seen.append(jobs)
            return real(*args, jobs=jobs)

        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        code = run([
            "reproduce", "--data", str(tmp_path / "corpus"), "--seq-len", "16",
            "--folds", "1", "--epochs", "1", "--standardize", "--out", str(out),
        ])
        assert code == 0
        assert seen == [3] * 6  # each pair's folds go to one worker per CPU
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 6 + 1  # header, six pairs, average
        assert rows[-1].startswith("average,")
        assert (out / "results.csv").read_text() in capsys.readouterr().out
        curves = [f"curves_{x}_{y}.csv" for x, y, _ in harness.TABLE_PAIRS]
        assert sorted(p.name for p in out.iterdir()) == sorted(["results.csv", "results.json", *curves])

    def test_config_echo_keys_in_order(self, tmp_path, capsys):
        argv = ["reproduce", "--data", str(grid_corpus(tmp_path / "corpus")), "--seq-len", "16"]
        assert run(argv + ["--folds", "1", "--epochs", "1", "--standardize", "--out", str(tmp_path / "rep")]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("== reproduce ==\n")
        keys = ["data", "folds", "seq_len", "standardize", "out"]
        assert echo_keys(printed, "reproduce") == keys + TRAIN_CONFIG_KEYS

    def test_out_that_is_a_file_fails_before_training(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although --out cannot be created")

        monkeypatch.setattr(harness, "run_reproduction", no_training)
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["reproduce", "--data", str(tmp_path / "corpus"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err and captured.err.count("\n") == 1
        assert not any(line.startswith("pair") for line in captured.out.splitlines())

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
