"""Call spans around the public functions of eeglstm's modules.

A traced run replaces each target function at its module or class attribute
(and at every other eeglstm module attribute bound to the same object, so
``from .layers import flatten_arrays`` in another module is covered too)
with a wrapper that records a span: name, start, end, parent span and a few
attributes computed from the call's shapes. Spans stay in memory and are
written out when the run ends; self time is derived from them.

``tensor`` is not wrapped: it is called about 20 times per timestep, so its
time is part of the ``layers`` spans that call it. ``cli`` and ``gradcheck``
are not on any workload's timed path.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from statistics import median

# (module, attribute) of every wrapped function; "Class.method" wraps a method.
TARGETS = (
    ("data", "load_bonn_set"),
    ("data", "make_pair_dataset"),
    ("data", "standardize_dataset"),
    ("data", "kfold_split"),
    ("layers", "lstm_forward"),
    ("layers", "lstm_backward"),
    ("layers", "dropout_forward"),
    ("layers", "init_params"),
    ("layers", "flatten_arrays"),
    ("layers", "Model.forward"),
    ("layers", "Model.backward"),
    ("layers", "Model.scores"),
    ("layers", "Model.get_flat_params"),
    ("layers", "Model.set_flat_params"),
    ("optim", "adam_step"),
    ("optim", "bce_loss"),
    ("harness", "run_experiment"),
    ("harness", "train_model"),
    ("harness", "evaluate"),
    ("metrics", "confusion_report"),
    ("metrics", "roc_auc"),
    ("checkpoint", "load_checkpoint"),
    ("checkpoint", "save_checkpoint"),
)

PARAM_COPY = ("layers.Model.get_flat_params", "layers.Model.set_flat_params", "layers.flatten_arrays")

MIB = float(1 << 20)


def _nbytes(obj, seen=None) -> int:
    """nbytes of every distinct array reachable from obj through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_nbytes(v, seen) for v in items)


def _describe_lstm(b, t, params):
    d, h = params.input_dim, params.hidden_dim
    return {"layer": 1 if d == 1 else 2, "b": b, "t": t, "d": d, "h": h}


def _describe_lstm_forward(a, out):
    b, t = a["x"].shape[:2]
    return {**_describe_lstm(b, t, a["params"]), "cache_bytes": _nbytes(out)}


def _describe_lstm_backward(a, out):
    b, t = a["dh_out"].shape[:2]
    return _describe_lstm(b, t, a["params"])


def _describe_forward(a, out):
    return {"train": bool(a["train"])}


def _describe_dropout(a, out):
    return {"masked": out[1] is not None}


def _describe_scores(a, out):
    return {"n": len(a["x"])}


def _describe_load(a, out):
    from eeglstm import data

    set_dir = data.resolve_set_dir(a["directory"], a["set_id"])
    return {"bytes": sum(p.stat().st_size for p in set_dir.iterdir() if p.suffix.lower() == ".txt")}


# Describers see the call's arguments bound to the function's parameter
# names (defaults applied), so positional and keyword calls read the same.
DESCRIBE = {
    "layers.lstm_forward": _describe_lstm_forward,
    "layers.lstm_backward": _describe_lstm_backward,
    "layers.dropout_forward": _describe_dropout,
    "layers.Model.forward": _describe_forward,
    "layers.Model.scores": _describe_scores,
    "data.load_bonn_set": _describe_load,
}


class Tracer:
    """Span recorder. Spans are lists [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = True
        self.absent = []
        self.describe_errors = {}  # function name -> (count, first error)

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        """Span around the benchmark's own steps (set-up repeats, timed tasks)."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        span[4] = attrs
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn):
        describe = DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe is not None else None

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = describe(bound.arguments, out)
                except Exception as exc:  # the metrics from this span would be wrong, so the run fails
                    count, first = self.describe_errors.get(name, (0, f"{type(exc).__name__}: {exc}"))
                    self.describe_errors[name] = (count + 1, first)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target that exists; record the missing ones in self.absent."""
        import importlib

        modules = [m for k, m in list(sys.modules.items()) if k == "eeglstm" or k.startswith("eeglstm.")]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            module = importlib.import_module(f"eeglstm.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write(self, path):
        """One JSON object per span: name, start, end, parent, attrs."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans.

# name -> (unit, better)
LAYER_METRICS = {
    "layers.lstm1.fwd_ms": ("ms", "lower"),
    "layers.lstm1.bwd_ms": ("ms", "lower"),
    "layers.lstm2.fwd_ms": ("ms", "lower"),
    "layers.lstm2.bwd_ms": ("ms", "lower"),
    "layers.lstm1.fwd_gflops": ("GFLOP/s", "higher"),
    "layers.lstm1.bwd_gflops": ("GFLOP/s", "higher"),
    "layers.lstm2.fwd_gflops": ("GFLOP/s", "higher"),
    "layers.lstm2.bwd_gflops": ("GFLOP/s", "higher"),
    "layers.lstm1.cache_mb": ("MiB", "lower"),
    "layers.lstm2.cache_mb": ("MiB", "lower"),
    "layers.scores.ms": ("ms", "lower"),
    "layers.scores.seq_per_s": ("1/s", "higher"),
    "layers.dropout.ms": ("ms", "lower"),
    "layers.params_copy_ms": ("ms", "lower"),
    "layers.forward.calls": ("count", "lower"),
    "layers.backward.calls": ("count", "lower"),
    "layers.scores.calls": ("count", "lower"),
    "optim.adam_step.ms": ("ms", "lower"),
    "optim.bce_loss.ms": ("ms", "lower"),
    "harness.step_ms_p50": ("ms", "lower"),
    "harness.step_ms_tail": ("ms", "lower"),
    "harness.train_model.self_ms": ("ms", "lower"),
    "harness.run_experiment.self_ms": ("ms", "lower"),
    "harness.evaluate.ms": ("ms", "lower"),
    "data.load_bonn_set.ms": ("ms", "lower"),
    "data.load_bonn_set.mb_per_s": ("MiB/s", "higher"),
    "data.standardize_dataset.ms": ("ms", "lower"),
    "checkpoint.load_checkpoint.ms": ("ms", "lower"),
    "metrics.confusion_report.ms": ("ms", "lower"),
    "metrics.roc_auc.ms": ("ms", "lower"),
}


def lstm_flops(attrs, backward: bool) -> int:
    """Matmul FLOPs of one LSTM layer call, computed from its shapes.

    Forward: input projection 2*B*T*D*4H plus the recurrent product
    2*B*T*H*4H. Backward: the recurrent product again plus dkernel,
    drecurrent and dx, i.e. twice the forward count. Elementwise gate math
    is not counted.
    """
    b, t, d, h = attrs["b"], attrs["t"], attrs["d"], attrs["h"]
    fwd = 8 * b * t * h * (d + h)
    return 2 * fwd if backward else fwd


def tail_percentile(n: int):
    """Highest whole percentile with at least ten of n samples beyond it, or None."""
    for p in range(99, 0, -1):
        beyond = n - -(-n * p // 100)  # samples above the ceil(n*p/100)-th
        if beyond >= 10:
            return p
    return None


def percentile(sorted_values, p: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[k - 1]


class _Index:
    """Parent/child lookups over a span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.child_time[parent] += end - start

    def dur(self, i) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def attrs(self, i) -> dict:
        return self.spans[i][4] or {}

    def parent(self, i) -> int:
        return self.spans[i][3]

    def ancestor(self, i, name):
        p = self.parent(i)
        while p >= 0:
            if self.spans[p][0] == name:
                return p
            p = self.parent(p)
        return None

    def get(self, name):
        return self.by_name.get(name, [])


def layer_metrics(spans, n_tasks: int, absent_functions):
    """Every per-layer metric as name -> (value, unit, note).

    Layer calls count when they happen inside a "bench.task" span; data
    loading also counts during set-up. A metric whose function no longer
    exists, or that this workload never exercises, has value 0.0 and a note
    starting with "absent".
    """
    ix = _Index(spans)
    out = {}

    def put(name, value, note):
        out[name] = (float(value), LAYER_METRICS[name][0], note)

    def absent(name, fn, what=None):
        if fn in absent_functions:
            why = f"function {fn} no longer exists"
        else:
            why = f"{what or fn} not called on this workload"
        out[name] = (0.0, LAYER_METRICS[name][0], f"absent: {why}")

    def median_ms(name, idx, fn, note=""):
        if idx:
            put(name, 1e3 * median(ix.dur(i) for i in idx), f"median of {len(idx)} calls{note}")
        else:
            absent(name, fn)

    in_task = {i for i in range(len(spans)) if ix.ancestor(i, "bench.task") is not None}

    def task_calls(fn):
        return [i for i in ix.get(fn) if i in in_task]

    train_fwd = [i for i in task_calls("layers.Model.forward") if ix.attrs(i).get("train")]
    train_fwd_set = set(train_fwd)
    steps = len(train_fwd)

    # LSTM layers: the workload's main-path calls are the training calls
    # (batch 4); a workload without training calls uses its scoring calls.
    for layer in (1, 2):
        fwd_all = [i for i in task_calls("layers.lstm_forward") if ix.attrs(i).get("layer") == layer]
        fwd = [i for i in fwd_all if ix.parent(i) in train_fwd_set] or fwd_all
        bwd = [i for i in task_calls("layers.lstm_backward") if ix.attrs(i).get("layer") == layer]
        for kind, idx, fn, backward in (
            ("fwd", fwd, "layers.lstm_forward", False),
            ("bwd", bwd, "layers.lstm_backward", True),
        ):
            ms_name, gf_name = f"layers.lstm{layer}.{kind}_ms", f"layers.lstm{layer}.{kind}_gflops"
            if not idx:
                absent(ms_name, fn, f"{fn} for layer {layer}")
                absent(gf_name, fn, f"{fn} for layer {layer}")
                continue
            batch = "/".join(str(b) for b in sorted({ix.attrs(i)["b"] for i in idx}))
            note = f"median of {len(idx)} calls, batch {batch}"
            put(ms_name, 1e3 * median(ix.dur(i) for i in idx), note)
            gflops = median(lstm_flops(ix.attrs(i), backward) / ix.dur(i) / 1e9 for i in idx)
            put(gf_name, gflops, "computed: matmul FLOPs / span time, " + note)
        name = f"layers.lstm{layer}.cache_mb"
        if fwd_all:
            peak = max(ix.attrs(i)["cache_bytes"] for i in fwd_all)
            put(name, peak / MIB, "computed: nbytes of the largest returned cache")
        else:
            absent(name, "layers.lstm_forward", f"layers.lstm_forward for layer {layer}")

    scores = task_calls("layers.Model.scores")
    median_ms("layers.scores.ms", scores, "layers.Model.scores")
    if scores:
        n = sum(ix.attrs(i).get("n", 0) for i in scores)
        put("layers.scores.seq_per_s", n / sum(ix.dur(i) for i in scores), f"{n} recordings over {len(scores)} calls")
    else:
        absent("layers.scores.seq_per_s", "layers.Model.scores")

    per_step = f"per training step, {steps} steps"
    # Only calls that drew a mask count: with p = 0 dropout_forward returns at once.
    drop = [
        i for i in ix.get("layers.dropout_forward") if ix.parent(i) in train_fwd_set and ix.attrs(i).get("masked")
    ]
    if drop:
        put("layers.dropout.ms", 1e3 * sum(ix.dur(i) for i in drop) / steps, per_step)
    else:
        absent("layers.dropout.ms", "layers.dropout_forward", "train-mode layers.dropout_forward with p > 0")

    present = [f for f in PARAM_COPY if f not in absent_functions]
    if steps and present:
        copies = [i for f in present for i in task_calls(f) if ix.ancestor(i, "harness.train_model") is not None]
        gone = [f for f in PARAM_COPY if f in absent_functions]
        note = per_step + (f"; absent: {', '.join(gone)}" if gone else "")
        put("layers.params_copy_ms", 1e3 * sum(ix.dur(i) for i in copies) / steps, note)
    elif not present:
        out["layers.params_copy_ms"] = (0.0, "ms", f"absent: functions {', '.join(PARAM_COPY)} no longer exist")
    else:
        absent("layers.params_copy_ms", "harness.train_model", "training (harness.train_model)")

    for metric, fn in (
        ("layers.forward.calls", "layers.Model.forward"),
        ("layers.backward.calls", "layers.Model.backward"),
        ("layers.scores.calls", "layers.Model.scores"),
    ):
        if fn in absent_functions:
            absent(metric, fn)
        else:
            put(metric, len(task_calls(fn)) / n_tasks, f"per task, {n_tasks} tasks")

    for metric, fn in (("optim.adam_step.ms", "optim.adam_step"), ("optim.bce_loss.ms", "optim.bce_loss")):
        median_ms(metric, task_calls(fn), fn)

    # Interval between successive training-step starts within one epoch; a
    # validation sweep (Model.scores) between two steps ends the epoch.
    intervals = []
    for tm in ix.get("harness.train_model"):
        starts = sorted(
            (spans[i][1], i in train_fwd_set)
            for i in train_fwd + scores
            if ix.ancestor(i, "harness.train_model") == tm
        )
        intervals += [1e3 * (t1 - t0) for (t0, s0), (t1, s1) in zip(starts, starts[1:]) if s0 and s1]
    if intervals:
        intervals.sort()
        put("harness.step_ms_p50", percentile(intervals, 50), f"{len(intervals)} intervals")
        p = tail_percentile(len(intervals))
        if p is None or p < 50:
            put("harness.step_ms_tail", intervals[-1], f"max of {len(intervals)} intervals, too few for a tail percentile")
        else:
            put("harness.step_ms_tail", percentile(intervals, p), f"p{p} of {len(intervals)} intervals")
    else:
        absent("harness.step_ms_p50", "layers.Model.forward", "train-mode layers.Model.forward")
        absent("harness.step_ms_tail", "layers.Model.forward", "train-mode layers.Model.forward")

    for metric, fn in (
        ("harness.train_model.self_ms", "harness.train_model"),
        ("harness.run_experiment.self_ms", "harness.run_experiment"),
    ):
        idx = task_calls(fn)
        if idx:
            put(metric, 1e3 * median(ix.dur(i) - ix.child_time[i] for i in idx), f"median self time of {len(idx)} calls")
        else:
            absent(metric, fn)

    median_ms("harness.evaluate.ms", task_calls("harness.evaluate"), "harness.evaluate")

    loads = ix.get("data.load_bonn_set")
    median_ms("data.load_bonn_set.ms", loads, "data.load_bonn_set", ", set-up and tasks")
    if loads and all("bytes" in ix.attrs(i) for i in loads):
        total = sum(ix.attrs(i)["bytes"] for i in loads)
        put("data.load_bonn_set.mb_per_s", total / MIB / sum(ix.dur(i) for i in loads), f"{total} bytes of text")
    else:
        absent("data.load_bonn_set.mb_per_s", "data.load_bonn_set")
    median_ms("data.standardize_dataset.ms", ix.get("data.standardize_dataset"), "data.standardize_dataset", ", set-up and tasks")
    median_ms("checkpoint.load_checkpoint.ms", task_calls("checkpoint.load_checkpoint"), "checkpoint.load_checkpoint")
    median_ms("metrics.confusion_report.ms", task_calls("metrics.confusion_report"), "metrics.confusion_report")
    median_ms("metrics.roc_auc.ms", task_calls("metrics.roc_auc"), "metrics.roc_auc")
    return out
