"""Training loop, evaluation, and the multi-fold pair-set experiment runner."""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import BONN_SEQ_LEN, PairDataset, kfold_split, load_bonn_set, make_pair_dataset, standardize_dataset
from .errors import EegLstmError
from .layers import Model, ModelConfig, init_params
from .metrics import MetricsReport, confusion_report
from .optim import AdamState, TrainConfig, adam_step, bce_loss

DECISION_THRESHOLD = 0.5

# The six evaluated set pairs and the model variant used for each.
TABLE_PAIRS = (
    ("A", "E", 1),
    ("B", "E", 1),
    ("C", "E", 1),
    ("D", "E", 1),
    ("A", "D", 2),
    ("B", "D", 2),
)

RESULTS_HEADER = ("pair", "model", "val_acc", "test_acc", "sensitivity", "specificity", "precision", "auc")
CURVES_HEADER = ("fold", "epoch", "train_loss", "val_loss", "val_accuracy")

AGGREGATE_KEYS = ("val_accuracy", "test_accuracy", "sensitivity", "specificity", "precision", "auc")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


@dataclass
class FoldResult:
    """One trained fold: its best epoch, that epoch's parameters, and curves.

    The reports score the best epoch's parameters on the val and test rows.
    """

    fold_index: int
    best_epoch: int | None
    best_val_accuracy: float | None
    val_report: MetricsReport
    test_report: MetricsReport
    best_params: np.ndarray = field(repr=False)
    curves: list


@dataclass
class ExperimentResult:
    """Per-fold outcomes plus their arithmetic-mean aggregate for one pair."""

    pair: tuple
    variant: int
    seq_len: int
    k: int
    seed: int
    standardized: bool
    train_config: TrainConfig
    folds: list
    aggregate: dict

    @property
    def curves(self) -> list:
        return [f.curves for f in self.folds]


def evaluate(model: Model, data: PairDataset, threshold: float = DECISION_THRESHOLD):
    """Score a dataset in eval mode and derive metrics at the threshold.

    Returns (MetricsReport, raw scores). Model.scores raises ShapeError if
    the samples' length is not the model's seq_len.
    """
    scores = model.scores(data.samples)
    return confusion_report(scores, data.labels(), threshold), scores


def train_model(config: ModelConfig, tcfg: TrainConfig, split, data: PairDataset) -> FoldResult:
    """Train one fold with best-checkpoint tracking, then score its val and test rows.

    tcfg.seed is split into two independent streams (weight initialization;
    epoch shuffling + dropout masks), so a run is bit-reproducible. Each
    epoch shuffles the training indices, sweeps mini-batches (final partial
    batch allowed, gradient = mean over the batch), applies one Adam step
    per batch, then records validation loss/accuracy. The parameter snapshot
    with the highest validation accuracy is retained (ties keep the earliest
    epoch). The val report reuses that epoch's own validation scores; with
    no epochs it scores the initialization. A non-finite batch or validation
    loss stops training with an EegLstmError.
    """
    x_all, y_all = data.samples, data.labels()
    for name, idx in (("train", split.train), ("val", split.val)):
        if len(idx) == 0:
            raise ValueError(f"{name} split is empty")
        if np.max(idx) >= len(data.samples) or np.min(idx) < 0:
            raise ValueError(f"{name} split indexes out of range for {len(data.samples)} samples")

    init_seed, stream_seed = (
        int(s) for s in np.random.SeedSequence(tcfg.seed).generate_state(2, dtype=np.uint64)
    )
    model = init_params(config, init_seed)
    rng = np.random.default_rng(stream_seed)
    adam = AdamState.zeros(model.params.size)
    best_epoch = best_acc = best_scores = None
    best_params = model.params.copy()
    curves = []

    train_idx, val_idx, test_idx = (np.asarray(idx) for idx in (split.train, split.val, split.test))
    x_val, y_val = x_all[val_idx], y_all[val_idx]
    for epoch in range(1, tcfg.epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        loss_sum = 0.0
        for n, start in enumerate(range(0, order.size, tcfg.batch_size), start=1):
            batch = order[start : start + tcfg.batch_size]
            probs, cache = model.forward(x_all[batch], train=True, rng=rng)
            losses, dloss = bce_loss(probs, y_all[batch].astype(np.float64))
            batch_loss = float(losses.sum())
            if not np.isfinite(batch_loss):
                raise EegLstmError(
                    f"fold {split.fold_index}: non-finite training loss at epoch {epoch}, batch {n}"
                )
            model.backward(cache, dloss / batch.size)
            new_params, adam = adam_step(model.params, model.grad, adam, tcfg)
            model.params[...] = new_params
            loss_sum += batch_loss
        val_scores = model.scores(x_val)
        val_losses, _ = bce_loss(val_scores, y_val.astype(np.float64))
        val_loss = float(val_losses.mean())
        if not np.isfinite(val_loss):
            raise EegLstmError(f"fold {split.fold_index}: non-finite validation loss at epoch {epoch}")
        val_acc = float(np.mean((val_scores >= DECISION_THRESHOLD) == (y_val == 1)))
        curves.append(EpochRecord(epoch, loss_sum / order.size, val_loss, val_acc))
        if best_acc is None or val_acc > best_acc:
            best_epoch, best_acc, best_scores = epoch, val_acc, val_scores
            best_params = model.params.copy()
    model.params[...] = best_params
    if best_scores is None:
        best_scores = model.scores(x_val)
    return FoldResult(
        fold_index=split.fold_index,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        val_report=confusion_report(best_scores, y_val, DECISION_THRESHOLD),
        test_report=confusion_report(model.scores(x_all[test_idx]), y_all[test_idx], DECISION_THRESHOLD),
        best_params=best_params,
        curves=curves,
    )


def fold_train_seed(seed: int, fold_index: int) -> int:
    """Deterministic per-fold training seed derived from (seed, fold_index)."""
    return int(np.random.SeedSequence([seed, fold_index, 1]).generate_state(1, dtype=np.uint64)[0])


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    mean = sum(defined) / len(defined) if defined else None
    return mean, len(values) - len(defined)


def aggregate_fold_metrics(folds) -> dict:
    """Arithmetic means over folds; undefined cells are skipped and counted."""
    series = {
        "val_accuracy": [f.best_val_accuracy for f in folds],
        "test_accuracy": [f.test_report.accuracy for f in folds],
        "sensitivity": [f.test_report.sensitivity for f in folds],
        "specificity": [f.test_report.specificity for f in folds],
        "precision": [f.test_report.precision for f in folds],
        "auc": [f.test_report.auc for f in folds],
    }
    agg = {}
    undefined = {}
    for key, values in series.items():
        mean, n_undef = _mean_defined(values)
        agg[key] = mean
        if n_undef:
            undefined[key] = n_undef
    agg["undefined_counts"] = undefined
    return agg


def run_experiment(
    data: PairDataset,
    variant: int,
    k: int,
    seed: int,
    tcfg: TrainConfig,
    jobs: int = 1,
) -> ExperimentResult:
    """Train and evaluate one pair over k independent stratified folds.

    Every fold gets its own split and its own derived training seed; fold
    execution is order-independent, so jobs > 1 runs folds in parallel
    processes with identical results.
    """
    splits = kfold_split(data.n_per_class, k, seed)
    config = ModelConfig(variant=variant, seq_len=data.seq_len)
    args = (
        [config] * k,
        [replace(tcfg, seed=fold_train_seed(seed, s.fold_index)) for s in splits],
        splits,
        [data] * k,
    )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(train_model, *args))
    else:
        folds = list(map(train_model, *args))
    return ExperimentResult(
        pair=data.pair,
        variant=variant,
        seq_len=data.seq_len,
        k=k,
        seed=seed,
        standardized=data.standardized,
        train_config=tcfg,
        folds=folds,
        aggregate=aggregate_fold_metrics(folds),
    )


def run_reproduction(
    data_root,
    k: int,
    seed: int,
    tcfg: TrainConfig,
    seq_len: int = BONN_SEQ_LEN,
    standardize: bool = False,
    jobs: int = 1,
    progress=None,
):
    """Run the full six-pair grid against an on-disk corpus."""
    loaded = {}
    results = []
    for first, second, variant in TABLE_PAIRS:
        for set_id in (first, second):
            if set_id not in loaded:
                loaded[set_id] = load_bonn_set(data_root, set_id, expected_len=seq_len)
        dataset = make_pair_dataset(loaded[first], loaded[second])
        if standardize:
            dataset = standardize_dataset(dataset)
        if progress:
            progress(f"pair {first}/{second} (model {variant}) ...")
        results.append(run_experiment(dataset, variant, k, seed, tcfg, jobs=jobs))
        if progress:
            agg = results[-1].aggregate
            progress(
                f"pair {first}/{second}: val_acc={_fmt_pct(agg['val_accuracy'])} "
                f"auc={_fmt_auc(agg['auc'])}"
            )
    return results


def _fmt_pct(x) -> str:
    return "NA" if x is None else f"{100.0 * x:.2f}"


def _fmt_auc(x) -> str:
    return "NA" if x is None else f"{x:.4f}"


def _format_row(label: str, model: str, values: dict):
    """One results.csv row: percentages to two decimals, AUC to four."""
    return [label, model] + [(_fmt_auc if key == "auc" else _fmt_pct)(values[key]) for key in AGGREGATE_KEYS]


def results_row(result: ExperimentResult):
    return _format_row("/".join(result.pair), str(result.variant), result.aggregate)


def average_row(results):
    """Column-wise mean over pairs, mirroring the summary line of the table."""
    means = {key: _mean_defined([r.aggregate[key] for r in results])[0] for key in AGGREGATE_KEYS}
    return _format_row("average", "", means)


def write_results_csv(path, results, include_average: bool = False) -> None:
    """CSV with one row per pair: percentages to two decimals, AUC to four."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for result in results:
            writer.writerow(results_row(result))
        if include_average:
            writer.writerow(average_row(results))


def write_curves_csv(path, curves_by_fold) -> None:
    """CSV of per-epoch training curves, one block per fold."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVES_HEADER)
        for fold_index, curves in enumerate(curves_by_fold):
            for rec in curves:
                writer.writerow(
                    [fold_index, rec.epoch, repr(rec.train_loss), repr(rec.val_loss), repr(rec.val_accuracy)]
                )


def experiment_to_dict(result: ExperimentResult) -> dict:
    return {
        "pair": "/".join(result.pair),
        "model_variant": result.variant,
        "seq_len": result.seq_len,
        "folds": result.k,
        "seed": result.seed,
        "standardized": result.standardized,
        "train_config": asdict(result.train_config),
        "aggregate": result.aggregate,
        "per_fold": [
            {
                "fold_index": f.fold_index,
                "best_epoch": f.best_epoch,
                "best_val_accuracy": f.best_val_accuracy,
                "val": f.val_report.to_dict(),
                "test": f.test_report.to_dict(),
            }
            for f in result.folds
        ],
        "curves": [[asdict(rec) for rec in fold_curves] for fold_curves in result.curves],
    }


def write_experiment_json(path, results) -> None:
    payload = [experiment_to_dict(r) for r in results]
    if len(payload) == 1:
        payload = payload[0]
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
