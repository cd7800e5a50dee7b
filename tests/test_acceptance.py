"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import filecmp
import math
import os

import numpy as np
import pytest

from eeglstm.cli import main as cli_main
from eeglstm.data import ToneSpec, gen_synthetic, kfold_split
from eeglstm.gradcheck import REL_TOL, run_gradcheck
from eeglstm.harness import run_experiment, run_reproduction
from eeglstm.layers import ModelConfig, param_count
from eeglstm.metrics import roc_auc
from eeglstm.optim import AdamState, TrainConfig, adam_step


def report(name: str, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_parameter_count_identity():
    total1, layers1 = param_count(ModelConfig(variant=1))
    total2, layers2 = param_count(ModelConfig(variant=2))
    ok = (
        layers1 == [("lstm1", 16896), ("dense", 65)]
        and total1 == 16961
        and layers2 == [("lstm1", 66560), ("lstm2", 49408), ("dense", 65)]
        and total2 == 116033
    )
    report("parameter-count identity", ok, f"model1={total1}, model2={total2}")


def test_gradient_correctness():
    cases = run_gradcheck(hidden_sizes=(4, 8), seq_lens=(5, 20), variants=(1, 2))
    worst = max(cases, key=lambda c: c.max_rel_err)
    ok = all(c.passed() for c in cases)
    report(
        "gradient correctness",
        ok,
        f"max rel err {worst.max_rel_err:.2e} at {worst.description}, tol {REL_TOL:.0e}",
    )


def pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    twice = 0
    for p in pos:
        for n in neg:
            twice += 2 if p > n else (1 if p == n else 0)
    return twice / (2 * len(pos) * len(neg))


def test_auc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        # coarse grid of score values forces plenty of exact ties
        scores = rng.choice(np.linspace(0.0, 1.0, 9), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if roc_auc(scores, labels) != pairwise_auc(scores, labels):
            mismatches += 1
    report("AUC oracle equivalence", mismatches == 0, f"{mismatches} mismatches in 1000 instances")


def test_adam_closed_form():
    cfg = TrainConfig()
    new, _ = adam_step(np.array([0.0]), np.array([1.0]), AdamState.zeros(1), cfg)
    m_hat = (0.1 * 1.0) / (1.0 - 0.9)
    v_hat = (0.001 * 1.0) / (1.0 - 0.999)
    expected = -cfg.learning_rate * m_hat / (math.sqrt(v_hat) + cfg.epsilon)
    ok = abs(new[0] - expected) < 1e-12 and abs(new[0] - (-0.000999999990)) < 1e-12
    report("Adam closed form", ok, f"step={new[0]!r}")


def test_split_protocol():
    ok = True
    detail = ""
    for fold in kfold_split(100, 10, seed=13):
        sizes = (fold.train.size, fold.val.size, fold.test.size)
        merged = np.sort(np.concatenate([fold.train, fold.val, fold.test]))
        strat = all(
            int(np.sum(part < 100)) == per_class
            for part, per_class in ((fold.train, 70), (fold.val, 20), (fold.test, 10))
        )
        if sizes != (140, 40, 20) or not np.array_equal(merged, np.arange(200)) or not strat:
            ok = False
            detail = f"fold {fold.fold_index}: sizes={sizes}"
            break
    report("split protocol", ok, detail or "10 folds x 140/40/20, stratified, disjoint, covering")


def test_desk_scale_learning():
    data = gen_synthetic(
        ToneSpec(freq_hz=2.0, amplitude=1.0, noise_sd=0.1),
        ToneSpec(freq_hz=10.0, amplitude=1.0, noise_sd=0.1),
        n_per_class=100,
        seq_len=128,
        sample_rate_hz=64.0,
        seed=11,
    )
    result = run_experiment(
        data, variant=1, k=3, seed=7,
        tcfg=TrainConfig(learning_rate=1e-3, batch_size=4, epochs=20, seed=0),
    )
    mean_val = result.aggregate["val_accuracy"]
    report("desk-scale learning", mean_val >= 0.95, f"mean val accuracy {mean_val:.4f} over 3 folds")


def test_end_to_end_determinism(tmp_path):
    args = [
        "train", "--synthetic", "default", "--seq-len", "64", "--folds", "2",
        "--epochs", "3", "--seed", "21",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    same = all(
        filecmp.cmp(out_a / name, out_b / name, shallow=False)
        for name in ("results.csv", "curves.csv")
    )
    report("end-to-end determinism", same, "results.csv and curves.csv byte-identical")


@pytest.mark.skipif(
    "BONN_DATA_DIR" not in os.environ,
    reason="full-corpus reproduction is advisory; set BONN_DATA_DIR to run it",
)
def test_full_table_reproduction_advisory():
    # Long-running. Advisory tolerance: within 5 percentage points / 0.05 AUC
    # of the reference means (A/E val 99.50, AUC 0.9820; grid mean val 95.54,
    # mean AUC 0.9582); exact seeds of the original runs are unknowable.
    results = run_reproduction(
        os.environ["BONN_DATA_DIR"], k=10, seed=7, tcfg=TrainConfig(),
        standardize=os.environ.get("BONN_STANDARDIZE", "1") == "1",
        jobs=int(os.environ.get("BONN_JOBS", "1")),
    )
    by_pair = {"/".join(r.pair): r.aggregate for r in results}
    ae = by_pair["A/E"]
    mean_val = float(np.mean([r.aggregate["val_accuracy"] for r in results]))
    mean_auc = float(np.mean([r.aggregate["auc"] for r in results]))
    ok = (
        abs(ae["val_accuracy"] - 0.9950) <= 0.05
        and abs(ae["auc"] - 0.9820) <= 0.05
        and abs(mean_val - 0.9554) <= 0.05
        and abs(mean_auc - 0.9582) <= 0.05
    )
    report(
        "full table reproduction (advisory)",
        ok,
        f"A/E val={ae['val_accuracy']:.4f} auc={ae['auc']:.4f}; grid val={mean_val:.4f} auc={mean_auc:.4f}",
    )
