import json

import pytest

from eeglstm.cli import main
from eeglstm.data import ToneSpec, gen_synthetic, export_bonn_format


def run(argv):
    return main(argv)


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
        ],
    )
    def test_bad_value_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestDataErrors:
    def test_missing_corpus_is_runtime_error(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nowhere"), "--pair", "A,E"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_synthetic_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(SMALL_TRAIN + ["--out", str(out)])
        assert code == 0
        for name in ("results.csv", "curves.csv", "result.json", "checkpoint.json"):
            assert (out / name).exists(), name
        printed = capsys.readouterr().out
        assert "== train ==" in printed
        assert "learning_rate = 0.001" in printed  # effective config echoed
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "pair,model,val_acc,test_acc,sensitivity,specificity,precision,auc"

    def test_checkpoint_is_loadable_and_evaluable(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        code = run([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--synthetic", "default", "--seq-len", "32", "--seed", "3",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_evaluate_variant_check(self, tmp_path):
        out = tmp_path / "out"
        assert run(SMALL_TRAIN + ["--out", str(out)]) == 0
        code = run([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"), "--model", "2",
            "--synthetic", "default", "--seq-len", "32",
        ])
        assert code == 1  # variant mismatch is a load error

    def test_train_on_exported_corpus(self, tmp_path):
        # the loader expects exactly 100 files per set
        ds = gen_synthetic(ToneSpec(2, 500, 20), ToneSpec(10, 500, 20), 100, 24, 64.0, seed=1)
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

    def test_runs_on_tiny_surrogate_corpus(self, tmp_path):
        # five sets named A-E (100 files each) so every pair in the grid resolves
        amps = {"A": 200, "B": 220, "C": 240, "D": 800, "E": 1200}
        for name, amp in amps.items():
            ds = gen_synthetic(
                ToneSpec(2, amp, 10), ToneSpec(9, amp, 10), 100, 16, 64.0, seed=ord(name)
            )
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
        assert (out / "curves_A_E.csv").exists()
        assert (out / "results.json").exists()
