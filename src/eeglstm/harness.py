"""Training loop, evaluation, and the multi-fold pair-set experiment runner."""

from __future__ import annotations

import json
import os
import pickle
import selectors
import subprocess
import sys
import traceback
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import checkpoint, metrics
from .data import BONN_SEQ_LEN, SET_IDS, PairDataset, kfold_split, load_bonn_set, make_pair_dataset, standardize_dataset
from .errors import EegLstmError
from .layers import Model, ModelConfig, init_params, score_chunks
from .optim import TrainConfig, adam_step, bce_loss

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
    val_report: metrics.MetricsReport
    test_report: metrics.MetricsReport
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


# The thread-count variables of OpenBLAS, OpenMP and MKL, each set to 1 in every worker.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A worker's program. It ignores SIGINT (its parent ends it), takes the
# parent's sys.path from its task pipe so that it imports the same modules,
# then serves the rest of the pipe.
_WORKER_MAIN = f"""\
import signal
signal.signal(signal.SIGINT, signal.SIG_IGN)
import pickle, sys
with open(int(sys.argv[1]), "rb") as tasks, open(int(sys.argv[2]), "wb") as replies:
    sys.path[:] = pickle.load(tasks)
    from {__name__} import _serve
    _serve(tasks, replies)
"""


def _serve(tasks, replies) -> None:
    """A worker's work: read (fn, argument tuples), run fn on each in order,
    and send back (None, results), or, at the first exception, (the failed
    tuple's position, (the exception, its traceback's text))."""
    fn, arg_tuples = pickle.load(tasks)
    results = []
    try:
        for args in arg_tuples:
            results.append(fn(*args))
        reply = (None, results)
    except Exception as exc:
        reply = (len(results), (exc, traceback.format_exc()))
    pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)


def map_in_workers(fn, arg_tuples, workers: int, what: str) -> list:
    """[fn(*args) for args in arg_tuples], computed in `workers` worker processes.

    Each worker is a fresh interpreter (`sys.executable`, not a fork) with
    one BLAS thread: BLAS_THREAD_VARS are 1 in its environment, and the
    parent's os.environ is left as it is. Worker w gets arg_tuples[w::workers]
    and the parent's sys.path. fn, its arguments and its results travel as
    pickles over two pipes per worker that nothing else writes to, so fn must
    be picklable by reference (a module-level function or a bound method of
    a picklable object). When tasks raise, the exception of the lowest
    failing task is raised here with its type and message, as a serial loop
    would raise it; a worker that can only fail at a later task is killed
    once that is known. A worker that dies without replying (an
    out-of-memory kill, say) raises at once one EegLstmError line: `what`,
    which names the worker, then "died" and the cause. Every worker has
    exited, and was killed if it was still running, before this returns or
    raises. Where child processes cannot inherit pipes (not POSIX), the
    tasks run in this process, in order.
    """
    if os.name != "posix":
        return [fn(*args) for args in arg_tuples]
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    results, procs = [None] * len(arg_tuples), []

    def died(w):
        code = procs[w].wait()
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        return EegLstmError(f"{what} died ({how}; an out-of-memory kill is the usual cause)")

    with ExitStack() as pipes, selectors.DefaultSelector() as pending:
        try:
            sends = []
            for w in range(workers):
                task_r, task_w = os.pipe()
                reply_r, reply_w = os.pipe()
                sends.append(pipes.enter_context(open(task_w, "wb")))
                pending.register(pipes.enter_context(open(reply_r, "rb")), selectors.EVENT_READ, w)
                try:
                    cmd = [sys.executable, "-c", _WORKER_MAIN, str(task_r), str(reply_w)]
                    procs.append(subprocess.Popen(cmd, stdin=subprocess.DEVNULL, env=env, pass_fds=(task_r, reply_w)))
                finally:
                    os.close(task_r)
                    os.close(reply_w)
            for w, send in enumerate(sends):  # every worker starts up while the first one is sent its tasks
                try:
                    pickle.dump(sys.path, send)
                    pickle.dump((fn, arg_tuples[w::workers]), send, protocol=pickle.HIGHEST_PROTOCOL)
                    send.close()
                except BrokenPipeError:
                    raise died(w) from None
            failure = None  # (task index, exception, traceback text) of the lowest failed task
            while pending.get_map():
                for key, _ in pending.select():
                    w = key.data
                    pending.unregister(key.fileobj)
                    try:
                        failed_at, value = pickle.load(key.fileobj)
                    except (EOFError, pickle.UnpicklingError):
                        raise died(w) from None
                    if failed_at is None:
                        results[w::workers] = value
                    elif failure is None or w + failed_at * workers < failure[0]:
                        failure = (w + failed_at * workers, *value)
                for key in list(pending.get_map().values()):
                    if failure and key.data > failure[0]:  # its first task, key.data, comes after the failed one
                        pending.unregister(key.fileobj)
                        procs[key.data].kill()
            if failure:
                _, exc, text = failure
                raise exc from RuntimeError(f"in a worker process:\n{text}")
        finally:
            for proc in procs:
                if pending.get_map():  # a reply is missing: end every worker still running
                    proc.kill()
                proc.wait()
    return results


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or every CPU where the platform has none."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def evaluate(model: Model, data: PairDataset, threshold: float = metrics.DECISION_THRESHOLD):
    """Score a dataset in eval mode and derive metrics at the threshold.

    Model.scores keeps no forward cache: it steps every layer through chunks
    of SCORE_CHUNK samples (layers.score_chunks), so memory grows with
    neither the sequence length nor the number of recordings. With more than
    one chunk and more than one CPU in this process's affinity mask (taskset
    limits it; every CPU where the platform has no mask), the chunks are
    dealt to min(CPUs, chunks) map_in_workers workers, each with one BLAS
    thread and about 35 MiB of its own, and their scores joined in order.
    Each chunk goes through Model.scores alone, as one chunk, so the scores
    are the serial path's bit for bit. Returns (MetricsReport, raw scores).
    Model.scores raises ShapeError if the samples' length is not the model's
    seq_len.
    """
    chunks = [(data.samples[lo:hi],) for lo, hi in score_chunks(len(data.samples))]
    workers = min(_cpu_count(), len(chunks)) if len(chunks) > 1 else 1
    if workers > 1:
        scores = np.concatenate(map_in_workers(model.scores, chunks, workers, "a scoring worker"))
    else:
        scores = model.scores(data.samples)
    return metrics.confusion_report(scores, data.labels(), threshold), scores


def train_model(config: ModelConfig, tcfg: TrainConfig, split, data: PairDataset) -> FoldResult:
    """Train one fold with best-checkpoint tracking, then score its val and test rows.

    tcfg.seed is split into two independent streams (weight initialization;
    epoch shuffling + dropout masks), so a run is bit-reproducible. Each
    epoch shuffles the training indices, sweeps mini-batches (final partial
    batch allowed, gradient = mean over the batch), applies one Adam step
    per batch, then records the validation loss and the accuracy of the
    epoch's validation report. The parameter snapshot with the highest
    validation accuracy is retained (ties keep the earliest epoch), and that
    epoch's report is the val report; with no epochs the initialization is
    scored. A non-finite batch or validation loss stops training with an
    EegLstmError. Each batch's forward cache is dropped once its backward has
    run, so a step holds one batch's BPTT memory, never two.
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
    # Adam's moment estimates and step count run across every epoch of the fold.
    m, v = np.zeros((2, model.params.size))
    step = 0
    best_epoch = best_acc = val_report = None
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
            losses, dloss = bce_loss(probs, y_all[batch])
            batch_loss = float(losses.sum())
            if not np.isfinite(batch_loss):
                raise EegLstmError(
                    f"fold {split.fold_index}: non-finite training loss at epoch {epoch}, batch {n}"
                )
            model.backward(cache, dloss / batch.size)
            del probs, cache  # the next forward must not run beside this cache
            step += 1
            adam_step(model.params, model.grad, m, v, step, tcfg)
            loss_sum += batch_loss
        val_scores = model.scores(x_val)
        val_losses, _ = bce_loss(val_scores, y_val)
        val_loss = float(val_losses.mean())
        if not np.isfinite(val_loss):
            raise EegLstmError(f"fold {split.fold_index}: non-finite validation loss at epoch {epoch}")
        report = metrics.confusion_report(val_scores, y_val)
        curves.append(EpochRecord(epoch, loss_sum / order.size, val_loss, report.accuracy))
        if best_acc is None or report.accuracy > best_acc:
            best_epoch, best_acc, val_report = epoch, report.accuracy, report
            best_params = model.params.copy()
    model.params[...] = best_params
    if val_report is None:
        val_report = metrics.confusion_report(model.scores(x_val), y_val)
    return FoldResult(
        fold_index=split.fold_index,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        val_report=val_report,
        test_report=metrics.confusion_report(model.scores(x_all[test_idx]), y_all[test_idx]),
        best_params=best_params,
        curves=curves,
    )


def fold_train_seed(seed: int, fold_index: int) -> int:
    """Deterministic per-fold training seed derived from (seed, fold_index)."""
    return int(np.random.SeedSequence([seed, fold_index, 1]).generate_state(1, dtype=np.uint64)[0])


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def aggregate_fold_metrics(folds) -> dict:
    """Arithmetic means over folds; undefined cells are skipped and counted.
    val_accuracy is each fold's best validation accuracy; the other keys are
    test-report fields (test_accuracy is the report's accuracy)."""
    agg, undefined = {}, {}
    for key in AGGREGATE_KEYS:
        values = [
            f.best_val_accuracy if key == "val_accuracy" else getattr(f.test_report, key.removeprefix("test_"))
            for f in folds
        ]
        agg[key] = _mean_defined(values)
        if None in values:
            undefined[key] = values.count(None)
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
    execution is order-independent, so jobs > 1 runs folds in min(jobs, k)
    map_in_workers workers, each a fresh interpreter with one BLAS thread,
    with identical results. The lowest failing fold's exception reaches the
    caller with its type and message, as at jobs = 1.
    """
    splits = kfold_split(data.n_per_class, k, seed)
    config = ModelConfig(variant=variant, seq_len=data.seq_len)
    tasks = [(config, replace(tcfg, seed=fold_train_seed(seed, s.fold_index)), s, data) for s in splits]
    workers = min(jobs, k)
    if workers > 1:
        folds = map_in_workers(train_model, tasks, workers, f"pair {'/'.join(data.pair)}: a fold worker")
    else:
        folds = [train_model(*task) for task in tasks]
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
):
    """Run the full six-pair grid against an on-disk corpus, printing a line
    as each pair starts and ends. All five sets load first, so a bad corpus
    fails before any training."""
    loaded = {set_id: load_bonn_set(data_root, set_id, expected_len=seq_len) for set_id in SET_IDS}
    results = []
    for first, second, variant in TABLE_PAIRS:
        dataset = make_pair_dataset(loaded[first], loaded[second])
        if standardize:
            dataset = standardize_dataset(dataset)
        print(f"pair {first}/{second} (model {variant}) ...")
        results.append(run_experiment(dataset, variant, k, seed, tcfg, jobs=jobs))
        agg = results[-1].aggregate
        print(f"pair {first}/{second}: val_acc={_fmt_pct(agg['val_accuracy'])} auc={_fmt_auc(agg['auc'])}")
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


def _csv_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def write_results_csv(path, results) -> str:
    """Write results.csv and return its text: the header, one row per pair
    and, with more than one pair, an `average` row of column-wise means over
    pairs. Percentages to two decimals, AUC to four."""
    rows = [RESULTS_HEADER, *map(results_row, results)]
    if len(results) > 1:
        means = {key: _mean_defined([r.aggregate[key] for r in results]) for key in AGGREGATE_KEYS}
        rows.append(_format_row("average", "", means))
    text = _csv_text(rows)
    Path(path).write_text(text, encoding="ascii", newline="")
    return text


def write_curves_csv(path, curves_by_fold) -> None:
    """CSV of per-epoch training curves, one block per fold."""
    rows = [CURVES_HEADER]
    for fold_index, curves in enumerate(curves_by_fold):
        rows += [
            (str(fold_index), str(rec.epoch), repr(rec.train_loss), repr(rec.val_loss), repr(rec.val_accuracy))
            for rec in curves
        ]
    Path(path).write_text(_csv_text(rows), encoding="ascii", newline="")


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
                "val": asdict(f.val_report),
                "test": asdict(f.test_report),
            }
            for f in result.folds
        ],
        "curves": [[asdict(rec) for rec in fold_curves] for fold_curves in result.curves],
    }


def write_json(path, payload) -> None:
    """Every JSON artifact but the checkpoint: 2-space indent, one trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii", newline="")


def write_run(out, results):
    """Write a run's artifacts into directory `out`, creating it, and return
    (results.csv's text, the written paths in write order).

    Every run writes results.csv. One pair (train) adds curves.csv,
    result.json and checkpoint.json, which holds the fold with the highest
    best validation accuracy (ties keep the lowest fold index). A grid
    (reproduce) adds curves_X_Y.csv per pair and results.json.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "results.csv"]
    table = write_results_csv(paths[0], results)
    if len(results) > 1:
        for result in results:
            paths.append(out / f"curves_{result.pair[0]}_{result.pair[1]}.csv")
            write_curves_csv(paths[-1], result.curves)
        paths.append(out / "results.json")
        write_json(paths[-1], [experiment_to_dict(r) for r in results])
        return table, paths
    (result,) = results
    paths += [out / "curves.csv", out / "result.json", out / "checkpoint.json"]
    write_curves_csv(paths[1], result.curves)
    write_json(paths[2], experiment_to_dict(result))
    best = max(result.folds, key=lambda f: (f.best_val_accuracy or 0.0, -f.fold_index))
    model = Model(ModelConfig(variant=result.variant, seq_len=result.seq_len))
    model.params[...] = best.best_params
    provenance = {
        "seed": result.seed,
        "fold_index": best.fold_index,
        "epoch": best.best_epoch,
        "val_accuracy": best.best_val_accuracy,
    }
    checkpoint.save_checkpoint(paths[3], model, standardized=result.standardized, provenance=provenance)
    return table, paths
