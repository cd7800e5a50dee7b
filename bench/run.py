"""Paper-scale benchmark of eeglstm: training and evaluation at T = 4097.

Usage, from the repository root:

    python3 bench/run.py --workload train-m1 --seed 3 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 3     # every workload, untraced then traced

Each workload runs in a fresh single process with OpenBLAS/OMP pinned to one
thread. It writes its inputs from the seed as Bonn-layout files (see
corpus.py), loads them with the same public functions ``eeglstm train`` and
``eeglstm evaluate`` call, repeats its task for about --seconds (the number
of tasks, at least one, that the first task's duration fits most closely),
checks the outputs, and prints every metric by name and unit. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

Workloads:

- train-m1: ``harness.run_experiment`` with model 1 (H = 64), standardised
  input, 2 folds x 1 epoch, batch 4. Per-timestep numpy overhead in the LSTM
  loops dominates; the folds are what fold-lockstep training would stack.
- train-m2: the same with model 2 (H = 128 -> 64, dropout 0.35): larger
  matmuls, dropout RNG and 7x the Adam and parameter-copy work. One task
  takes about 30 s, so a 36 s run makes one task: no repeat check, and its
  task_s includes the process's warm-up.
- evaluate-m1: the ``eeglstm evaluate`` flow on a model-1 checkpoint and a
  full 200-recording pair: forward only, batch 200, peak RSS about 4.5 GB.

Both train workloads train on 20 + 20 of the 100 + 100 recordings they write
and load, so one fold-epoch is 7 training batches, an 8-recording validation
sweep and the fold's final val/test evaluation: a fifth of the paper's 35
batches and 40-recording sweep, at the paper's sequence length and batch. The
paper-size fold-epoch would not fit the benchmark's time budget for model 2.

End-to-end metrics (--trace 0): setup_s (run start to the first timed call:
imports plus the median of five set-ups, each writing the corpus, loading
and standardising it or creating the checkpoint), task_s (fold_epoch_s on
train workloads: run_experiment wall / (folds x epochs); eval_pair_s on
evaluate-m1: the whole evaluate flow), seq_per_s (trained recordings per
second; scored recordings per second of ``harness.evaluate`` on
evaluate-m1) and peak_rss_mb (ru_maxrss). failed_ratio is printed with its
base and carried by the result's attempted/failed counts.

Per-layer metrics (--trace 1) come from spans recorded around the public
functions of data, layers, optim, harness, metrics and checkpoint (spans.py).

Notes:

- Known defect, excluded and not hidden: a model-2 evaluate of a full pair
  would retain about 10 GB of forward caches (computed from the array shapes,
  not run), more than an 8 GB machine has. evaluate-m1 prints the figure.
- evaluate-m1 peaks at about 4.5 GB, so runs must never overlap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from statistics import median

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EPOCHS = 1
BATCH = 4
TRAIN_PER_CLASS = 20  # of the 100 written per class
PAPER_SCALE = 100 // TRAIN_PER_CLASS  # paper recordings per benchmark recording
SETUP_REPEATS = 5
SEQ_LEN = 4097

# Four model-1 pairs and two model-2 pairs, 10 folds x 20 epochs each.
GRID = {"train-m1": 4, "train-m2": 2}
FOLD_EPOCHS_PER_PAIR = 200

WORKLOADS = {
    "train-m1": {"kind": "train", "variant": 1, "pair": ("A", "E"), "folds": 2},
    "train-m2": {"kind": "train", "variant": 2, "pair": ("A", "D"), "folds": 2},
    "evaluate-m1": {"kind": "evaluate", "variant": 1, "pair": ("A", "E")},
}

END_TO_END = {"setup_s": "s", "task_s": "s", "seq_per_s": "1/s", "peak_rss_mb": "MiB"}


class Terminated(Exception):
    """Raised by the SIGTERM handler so a killed run still counts its checks."""


def _terminate(signum, frame):
    raise Terminated(f"signal {signum}")


class Checks:
    """Correctness checks of the program's outputs, counted for failed_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", flush=True)

    def fail_unmade(self, count: int, why: str) -> None:
        """Checks that a crash or kill kept from being made count as failed."""
        if count > 0:
            self.attempted += count
            self.failed += count
            print(f"{count} checks not made ({why}) count as failed", flush=True)


def import_program():
    """Import eeglstm from this checkout's src/ with BLAS pinned to one thread."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "eeglstm" / "__init__.py").is_file():
        raise SystemExit(f"error: no eeglstm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import eeglstm
    from eeglstm import checkpoint, data, gradcheck, harness, layers, metrics, optim  # noqa: F401

    if Path(eeglstm.__file__).resolve().parent != (SRC / "eeglstm").resolve():
        raise SystemExit(f"error: imported eeglstm from {eeglstm.__file__}, not {SRC}")
    return eeglstm


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text(encoding="ascii").strip()
            for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "n/a (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eeglstm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _proc_field(path, key):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def env_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem[:1].isdigit() else mem,
        "seed": seed,
    }


def model2_eval_cache_bytes(n: int = 200, steps: int = SEQ_LEN) -> tuple:
    """Computed memory of a model-2 evaluate over n recordings: (retained caches, peak).

    Each LSTM layer's forward cache holds seven (n, T, H) float64 arrays; in
    eval mode the second layer's input is the first layer's h, not a copy.
    While layer 2 runs, its (n, T, 4H) input projection exists on top.
    """
    retained = 7 * n * steps * (128 + 64) * 8 + n * steps * 8
    return retained, retained + n * steps * 4 * 64 * 8


# ---------------------------------------------------------------------------
# Workloads


class TrainWorkload:
    post_checks = 1

    def __init__(self, eeg, spec, seed):
        self.eeg, self.variant, self.pair, self.folds, self.seed = eeg, spec["variant"], spec["pair"], spec["folds"], seed
        self.first_curves = None
        self.dataset = None

    def planned_checks(self, task_index):
        """Fold count, finite losses and accuracy range per fold-epoch, then equality with task 0."""
        return 1 + self.folds * EPOCHS * 2 + (task_index > 0)

    def set_up(self, rep_dir):
        """Write the pair, load both sets, keep 20 + 20 recordings, standardise."""
        from corpus import write_pair

        data = self.eeg.data
        nbytes = write_pair(rep_dir, self.pair, self.seed)
        first, second = (data.load_bonn_set(rep_dir, s) for s in self.pair)
        first, second = (replace(rs, sequences=rs.sequences[:TRAIN_PER_CLASS]) for rs in (first, second))
        self.dataset = data.standardize_dataset(data.make_pair_dataset(first, second))
        self.n_train = len(data.kfold_split(TRAIN_PER_CLASS, 1, self.seed)[0].train)
        return nbytes

    def describe(self):
        return (
            f"model {self.variant}, pair {'/'.join(self.pair)}, trains on {TRAIN_PER_CLASS}+{TRAIN_PER_CLASS} "
            f"of the 100+100 recordings, T={SEQ_LEN}, {self.folds} folds x {EPOCHS} epoch, batch {BATCH}, "
            f"{self.n_train} training recordings per fold"
        )

    def task(self, checks):
        import numpy as np

        tcfg = self.eeg.optim.TrainConfig(batch_size=BATCH, epochs=EPOCHS, seed=self.seed)
        t0 = time.perf_counter()
        result = self.eeg.harness.run_experiment(self.dataset, self.variant, self.folds, self.seed, tcfg)
        wall = time.perf_counter() - t0
        checks.check(len(result.curves) == self.folds, f"expected {self.folds} folds of curves, got {len(result.curves)}")
        for fold, curves in enumerate(result.curves):
            for rec in curves:
                checks.check(
                    bool(np.isfinite(rec.train_loss) and np.isfinite(rec.val_loss)),
                    f"fold {fold} epoch {rec.epoch}: non-finite loss {rec.train_loss}, {rec.val_loss}",
                )
                checks.check(
                    0.0 <= rec.val_accuracy <= 1.0, f"fold {fold} epoch {rec.epoch}: val accuracy {rec.val_accuracy}"
                )
        if self.first_curves is None:
            self.first_curves = result.curves
        else:
            checks.check(result.curves == self.first_curves, "a repeated task gave different training curves")
        fold_epochs = self.folds * EPOCHS
        return {"task_s": wall / fold_epochs, "seq_per_s": fold_epochs * self.n_train / wall}, (
            f"run_experiment {wall:.3f} s"
        )

    def post_check(self, checks):
        """Central-difference directional check of Model.backward on one T = 4097 batch."""
        import numpy as np

        eeg = self.eeg
        split = eeg.data.kfold_split(TRAIN_PER_CLASS, 1, self.seed)[0]
        idx = np.concatenate([split.train[:2], split.train[-2:]])
        x = self.dataset.values()[idx]
        y = self.dataset.labels()[idx].astype(np.float64)
        model = eeg.layers.init_params(eeg.layers.ModelConfig(variant=self.variant, seq_len=SEQ_LEN), self.seed)
        probs, cache = model.forward(x, train=False)
        _, dloss = eeg.optim.bce_loss(probs, y)
        grads = model.backward(cache, dloss / len(y))
        params = model.param_arrays()
        rng = np.random.default_rng(self.seed)
        dirs = [rng.standard_normal(np.shape(p)) for p in params]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in dirs))
        dirs = [d / norm for d in dirs]
        analytic = sum(float(np.sum(np.asarray(g) * d)) for g, d in zip(grads, dirs))
        base = [np.array(p, copy=True) for p in params]
        eps = eeg.gradcheck.FD_EPS

        def loss_at(step):
            for p, b, d in zip(params, base, dirs):
                p[...] = b + step * d
            losses, _ = eeg.optim.bce_loss(model.scores(x), y)
            return float(np.mean(losses))

        numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
        rel = float(eeg.gradcheck.relative_errors(np.array([analytic]), np.array([numeric]))[0])
        print(
            f"directional gradcheck (model {self.variant}, batch {len(y)}, T={SEQ_LEN}): "
            f"analytic {analytic:.10e} numeric {numeric:.10e} rel err {rel:.2e} (tol {eeg.gradcheck.REL_TOL})"
        )
        checks.check(rel < eeg.gradcheck.REL_TOL, f"directional gradcheck rel err {rel:.2e}")


class EvaluateWorkload:
    post_checks = 0

    def __init__(self, eeg, spec, seed):
        self.eeg, self.variant, self.pair, self.seed = eeg, spec["variant"], spec["pair"], seed
        self.corpus = None
        self.checkpoint = None
        self.saved = None

    def planned_checks(self, task_index):
        """Checkpoint round trip, finite scores, score range, confusion total, AUC."""
        return 5

    def set_up(self, rep_dir):
        """Write the pair and a model-1 checkpoint (seeded init, standardised input)."""
        from corpus import write_pair

        layers = self.eeg.layers
        nbytes = write_pair(rep_dir, self.pair, self.seed)
        model = layers.init_params(layers.ModelConfig(variant=self.variant, seq_len=SEQ_LEN), self.seed)
        path = Path(rep_dir) / "checkpoint.json"
        self.eeg.checkpoint.save_checkpoint(path, model, standardized=True, provenance={"seed": self.seed})
        self.corpus, self.checkpoint, self.saved = rep_dir, path, model
        return nbytes

    def describe(self):
        retained, peak = model2_eval_cache_bytes()
        return (
            f"model {self.variant} checkpoint, pair {'/'.join(self.pair)}, 200 recordings x T={SEQ_LEN}, one "
            f"harness.evaluate call; excluded: model-2 evaluate would retain {retained / 1e9:.1f} GB of caches, "
            f"{peak / 1e9:.1f} GB peak (computed from shapes, not run)"
        )

    def task(self, checks):
        import numpy as np

        eeg = self.eeg
        t0 = time.perf_counter()
        model, meta = eeg.checkpoint.load_checkpoint(self.checkpoint, expect_variant=self.variant)
        first, second = (eeg.data.load_bonn_set(self.corpus, s, expected_len=model.config.seq_len) for s in self.pair)
        dataset = eeg.data.make_pair_dataset(first, second)
        if meta["standardized"]:
            dataset = eeg.data.standardize_dataset(dataset)
        t1 = time.perf_counter()
        report, scores = eeg.harness.evaluate(model, dataset)
        t2 = time.perf_counter()

        n = len(dataset.samples)
        labels = dataset.labels()
        checks.check(
            all(np.array_equal(a, b) for a, b in zip(model.param_arrays(), self.saved.param_arrays())),
            "checkpoint round trip changed parameters",
        )
        checks.check(bool(np.all(np.isfinite(scores))), "non-finite scores")
        checks.check(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "scores outside [0, 1]")
        checks.check(report.total == n == 200, f"confusion counts sum to {report.total}, expected {n} = 200")
        pos, neg = scores[labels == 1], scores[labels == 0]
        greater = int(np.sum(pos[:, None] > neg[None, :]))
        ties = int(np.sum(pos[:, None] == neg[None, :]))
        brute = (2 * greater + ties) / (2 * pos.size * neg.size)
        checks.check(report.auc == brute, f"roc_auc {report.auc!r} != Mann-Whitney pair count {brute!r}")
        return {"task_s": t2 - t0, "seq_per_s": n / (t2 - t1)}, (
            f"evaluate flow {t2 - t0:.3f} s (harness.evaluate {t2 - t1:.3f} s, auc {report.auc:.4f})"
        )

    def post_check(self, checks):
        pass


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    eeg = import_program()
    t_import = time.perf_counter() - T_START
    import spans

    spec = WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    cls = TrainWorkload if spec["kind"] == "train" else EvaluateWorkload
    work = cls(eeg, spec, seed)
    checks = Checks()
    span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
    run_dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    env = env_info(seed)
    print(f"== eeglstm benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)} ==")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    setup_times, task_values, n_tasks = [], [], 0
    task_start = checks.attempted
    peak_rss_mb = None
    stage = "set-up"
    try:
        shutil.rmtree(run_dir, ignore_errors=True)
        for rep in range(SETUP_REPEATS):
            rep_dir = run_dir / f"setup{rep}"
            with span("bench.setup", rep=rep):
                t0 = time.perf_counter()
                nbytes = work.set_up(rep_dir)
                setup_times.append(time.perf_counter() - t0)
            if rep:
                shutil.rmtree(run_dir / f"setup{rep - 1}")
        print(f"corpus: seed {seed}, sets {'/'.join(spec['pair'])}, 200 files, {nbytes} bytes; {work.describe()}")
        setup_s = t_import + median(setup_times)
        print(
            f"set-up: import {t_import:.3f} s + median of {SETUP_REPEATS} set-ups "
            f"[{', '.join(f'{t:.3f}' for t in setup_times)}] s",
            flush=True,
        )

        # The first task's duration fixes how many tasks fill --seconds most closely.
        stage = "tasks"
        planned = 1
        while n_tasks < planned:
            task_start = checks.attempted
            t0 = time.perf_counter()
            with span("bench.task", index=n_tasks):
                values, note = work.task(checks)
            if n_tasks == 0:
                planned = max(1, round(seconds / (time.perf_counter() - t0)))
            n_tasks += 1
            task_values.append(values)
            print(f"task {n_tasks}/{planned}: {note}, checks {checks.attempted - task_start}", flush=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if spec["kind"] == "train" and n_tasks == 1:
            print("repeat check: not made, only one task fits --seconds")

        stage = "post-task checks"
        if tracer is not None:
            tracer.enabled = False
            for fn, (count, first) in tracer.describe_errors.items():
                checks.check(False, f"traced run: {count} calls of {fn} could not be described ({first})")
        work.post_check(checks)
    except Exception as exc:  # a crash fails every check not yet made, then the run exits 1
        import traceback

        traceback.print_exc()
        if stage != "post-task checks":
            made = checks.attempted - task_start
            checks.fail_unmade(work.planned_checks(n_tasks) - made, f"{stage} raised {type(exc).__name__}")
        checks.fail_unmade(work.post_checks, f"{stage} raised {type(exc).__name__}")
        print(json.dumps({"correct": False, "attempted": checks.attempted, "failed": checks.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if tracer is not None:
            WORK.mkdir(parents=True, exist_ok=True)
            spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    task_s = median(v["task_s"] for v in task_values)
    seq_per_s = median(v["seq_per_s"] for v in task_values)
    label = "fold_epoch_s" if spec["kind"] == "train" else "eval_pair_s"
    print(f"{label} (task_s) = {task_s:.4f} s  median of {n_tasks} tasks")
    rate_what = "trained recordings" if spec["kind"] == "train" else "score_seq_per_s: recordings scored by harness.evaluate"
    print(f"seq_per_s = {seq_per_s:.4f} 1/s  ({rate_what})")
    ratio = checks.failed / checks.attempted
    print(f"failed_ratio = {checks.failed}/{checks.attempted} = {ratio:g}")
    summary = {"workload": name, "trace": int(trace), "tasks": n_tasks, "task_s": task_s, "env": env}

    if tracer is None:
        metrics = {"setup_s": setup_s, "task_s": task_s, "seq_per_s": seq_per_s, "peak_rss_mb": peak_rss_mb}
        print(f"setup_s = {setup_s:.4f} s")
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MiB")
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        layer = spans.layer_metrics(tracer.spans, n_tasks, tracer.absent)
        if tracer.absent:
            print(f"absent functions: {', '.join(tracer.absent)}")
        for key, (value, unit, note) in layer.items():
            shown = "absent" if note.startswith("absent") else f"{value:.6g} {unit}"
            print(f"{key} = {shown}  ({note})")
        out = {k: {"value": v, "unit": u} for k, (v, u, _) in layer.items()}
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": out}))
    return 0 if checks.failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, one at a time: untraced, then traced."""
    summaries, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", f"{seconds:g}", "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            except subprocess.TimeoutExpired as exc:
                print(exc.stdout or "", end="")
                print(f"{name} trace {trace}: killed after 180 s, so every check it had not made failed")
                status = 1
                continue
            sys.stdout.write(proc.stdout + "\n")
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            summary = next((json.loads(line[8:]) for line in lines if line.startswith("summary ")), None)
            if proc.returncode != 0 or summary is None:
                status = 1
            if summary is not None:
                summary["result"] = json.loads(lines[-1])
                summaries[(name, trace)] = summary

    print("== all workloads ==")
    for name in WORKLOADS:
        untraced, traced = summaries.get((name, 0)), summaries.get((name, 1))
        if untraced is None:
            print(f"{name}: no result")
            continue
        res = untraced["result"]
        line = ", ".join(f"{k} {v['value']:.4f} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: {line}; failed_ratio {res['failed']}/{res['attempted']}")
        if traced is not None:
            over = traced["task_s"] - untraced["task_s"]
            print(
                f"{name}: tracing overhead = traced task_s {traced['task_s']:.4f} - untraced {untraced['task_s']:.4f} = "
                f"{over:+.4f} s ({100 * over / untraced['task_s']:+.2f} %)"
            )
    if all((n, 0) in summaries for n in GRID):
        fold_epoch = {n: summaries[(n, 0)]["task_s"] for n in GRID}
        hours = sum(GRID[n] * FOLD_EPOCHS_PER_PAIR * PAPER_SCALE * fold_epoch[n] for n in GRID) / 3600.0
        print(
            f"projected full grid (informational, not gated): (4 x {fold_epoch['train-m1']:.3f} s + "
            f"2 x {fold_epoch['train-m2']:.3f} s) x {FOLD_EPOCHS_PER_PAIR} fold-epochs x {PAPER_SCALE} = {hours:.2f} h "
            "at --jobs 1; each measured fold-epoch includes its fold's final evaluation, so this is an upper estimate"
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eeglstm paper-scale benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
