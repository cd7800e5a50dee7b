"""Command-line entry point.

Subcommands: train, evaluate, reproduce, gen-synth, gradcheck. Exit codes:
0 success, 1 runtime/data failure, 2 usage error. Every run prints its full
effective configuration before computing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import checkpoint as ckpt
from . import data as datamod
from . import gradcheck as gc
from . import harness
from .errors import EegLstmError
from .layers import Model, ModelConfig
from .optim import TrainConfig

SYNTH_KEYS = ("f0", "f1", "amp", "noise", "rate", "n")
SYNTH_DEFAULTS = {"f0": 2.0, "f1": 10.0, "amp": 1.0, "noise": 0.1, "rate": 64.0, "n": 100}


def _parse_pair(text: str, parser):
    parts = [p.strip().upper() for p in text.split(",")]
    if len(parts) != 2 or any(p not in datamod.SET_IDS for p in parts) or parts[0] == parts[1]:
        parser.error(f"--pair must name two distinct sets out of {','.join(datamod.SET_IDS)}, got {text!r}")
    return parts[0], parts[1]


def _parse_synth_spec(text: str, parser, flag: str = "--synthetic") -> dict:
    spec = dict(SYNTH_DEFAULTS)
    if text == "default":
        return spec
    for item in text.split(","):
        if "=" not in item:
            parser.error(f"{flag} entries must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in SYNTH_KEYS:
            parser.error(f"{flag}: unknown synthetic key {key!r}, expected one of {', '.join(SYNTH_KEYS)}")
        try:
            spec[key] = _synth_n(value) if key == "n" else float(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"{flag}: bad value for synthetic key {key!r}: {exc}")
    return spec


def _build_synthetic(spec: dict, seq_len: int, seed: int) -> datamod.PairDataset:
    return datamod.gen_synthetic(
        datamod.ToneSpec(spec["f0"], spec["amp"], spec["noise"]),
        datamod.ToneSpec(spec["f1"], spec["amp"], spec["noise"]),
        n_per_class=spec["n"],
        seq_len=seq_len,
        sample_rate_hz=spec["rate"],
        seed=seed,
    )


def _print_config(title: str, items: dict) -> None:
    print(f"== {title} ==")
    for key, value in items.items():
        print(f"  {key} = {value}")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
    )


def _resolve_dataset(args, parser):
    """Build the dataset from --data/--pair or --synthetic; applies --standardize."""
    if args.data and args.synthetic:
        parser.error("--data and --synthetic are mutually exclusive")
    if not args.data and not args.synthetic:
        parser.error("a data source is required: --data DIR with --pair, or --synthetic")
    if args.data:
        if not args.pair:
            parser.error("--data requires --pair X,Y")
        pair = _parse_pair(args.pair, parser)
        seq_len = datamod.BONN_SEQ_LEN if args.seq_len is None else args.seq_len
        first = datamod.load_bonn_set(args.data, pair[0], expected_len=seq_len)
        second = datamod.load_bonn_set(args.data, pair[1], expected_len=seq_len)
        dataset = datamod.make_pair_dataset(first, second)
        source = f"bonn:{args.data}"
    else:
        spec = _parse_synth_spec(args.synthetic, parser)
        seq_len = datamod.DEFAULT_SYNTH_SEQ_LEN if args.seq_len is None else args.seq_len
        try:
            dataset = _build_synthetic(spec, seq_len, args.seed)
        except ValueError as exc:
            parser.error(f"--synthetic: {exc}")
        source = f"synthetic:{args.synthetic}"
    if getattr(args, "standardize", False):
        dataset = datamod.standardize_dataset(dataset)
    return dataset, source


def cmd_train(args, parser) -> int:
    dataset, source = _resolve_dataset(args, parser)
    tcfg = _train_config(args)
    _print_config(
        "train",
        {
            "source": source,
            "pair": "/".join(dataset.pair),
            "model": args.model,
            "folds": args.folds,
            "seq_len": dataset.seq_len,
            "standardize": dataset.standardized,
            "jobs": args.jobs,
            "out": args.out,
            **asdict(tcfg),
        },
    )
    result = harness.run_experiment(dataset, args.model, args.folds, args.seed, tcfg, jobs=args.jobs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_results_csv(out / "results.csv", [result])
    harness.write_curves_csv(out / "curves.csv", result.curves)
    harness.write_experiment_json(out / "result.json", [result])

    best = max(result.folds, key=lambda f: (f.best_val_accuracy or 0.0, -f.fold_index))
    model = _model_from_fold(result, best)
    ckpt.save_checkpoint(
        out / "checkpoint.json",
        model,
        standardized=dataset.standardized,
        provenance={
            "seed": args.seed,
            "fold_index": best.fold_index,
            "epoch": best.best_epoch,
            "val_accuracy": best.best_val_accuracy,
        },
    )
    print(",".join(harness.RESULTS_HEADER))
    print(",".join(harness.results_row(result)))
    print(f"wrote {out / 'results.csv'}, {out / 'curves.csv'}, {out / 'result.json'}, {out / 'checkpoint.json'}")
    return 0


def _model_from_fold(result, fold):
    model = Model(ModelConfig(variant=result.variant, seq_len=result.seq_len))
    model.params[...] = fold.best_params
    return model


def cmd_evaluate(args, parser) -> int:
    model, meta = ckpt.load_checkpoint(args.checkpoint, expect_variant=args.model)
    if args.seq_len is None:
        args.seq_len = model.config.seq_len
    args.standardize = False  # the checkpoint's recorded flag decides
    dataset, source = _resolve_dataset(args, parser)
    if meta["standardized"]:
        dataset = datamod.standardize_dataset(dataset)
    _print_config(
        "evaluate",
        {
            "checkpoint": args.checkpoint,
            "source": source,
            "pair": "/".join(dataset.pair),
            "samples": len(dataset.samples),
            "seq_len": dataset.seq_len,
            "standardize": dataset.standardized,
            "threshold": args.threshold,
            "provenance": meta["provenance"],
        },
    )
    report, _ = harness.evaluate(model, dataset, threshold=args.threshold)
    for key, value in report.to_dict().items():
        print(f"  {key} = {value}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.json", "w", encoding="ascii") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {out / 'metrics.json'}")
    return 0


def cmd_reproduce(args, parser) -> int:
    tcfg = _train_config(args)
    seq_len = datamod.BONN_SEQ_LEN if args.seq_len is None else args.seq_len
    _print_config(
        "reproduce",
        {
            "data": args.data,
            "folds": args.folds,
            "seq_len": seq_len,
            "standardize": args.standardize,
            "jobs": args.jobs,
            "out": args.out,
            **asdict(tcfg),
        },
    )
    results = harness.run_reproduction(
        args.data,
        args.folds,
        args.seed,
        tcfg,
        seq_len=seq_len,
        standardize=args.standardize,
        jobs=args.jobs,
        progress=print,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_results_csv(out / "results.csv", results, include_average=True)
    for result in results:
        harness.write_curves_csv(out / f"curves_{result.pair[0]}_{result.pair[1]}.csv", result.curves)
    harness.write_experiment_json(out / "results.json", results)
    print(",".join(harness.RESULTS_HEADER))
    for result in results:
        print(",".join(harness.results_row(result)))
    print(",".join(harness.average_row(results)))
    print(f"wrote results under {out}")
    return 0


def cmd_gen_synth(args, parser) -> int:
    spec = _parse_synth_spec(args.spec, parser, flag="--spec")
    if spec["n"] != datamod.BONN_SET_SIZE:
        # --data loads exactly BONN_SET_SIZE files per set, so any other n is unloadable.
        parser.error(f"--spec: n must be {datamod.BONN_SET_SIZE} (files per on-disk set), got {spec['n']}")
    seq_len = datamod.DEFAULT_SYNTH_SEQ_LEN if args.seq_len is None else args.seq_len
    set_names = _parse_pair(args.sets, parser)
    _print_config(
        "gen-synth",
        {"spec": spec, "seq_len": seq_len, "seed": args.seed, "sets": "/".join(set_names), "out": args.out},
    )
    try:
        dataset = _build_synthetic(spec, seq_len, args.seed)
    except ValueError as exc:
        parser.error(f"--spec: {exc}")
    dirs = datamod.export_bonn_format(dataset, args.out, set_names=set_names)
    for d in dirs:
        print(f"wrote {d}")
    return 0


def cmd_gradcheck(args, parser) -> int:
    hidden_sizes = (args.hidden,) if args.hidden else (4, 8)
    seq_lens = (args.steps,) if args.steps else (5, 20)
    variants = (args.model,) if args.model else (1, 2)
    _print_config(
        "gradcheck",
        {
            "hidden_sizes": hidden_sizes,
            "seq_lens": seq_lens,
            "variants": variants,
            "seed": args.seed,
            "eps": gc.FD_EPS,
            "tolerance": gc.REL_TOL,
        },
    )
    reports = gc.run_gradcheck(
        hidden_sizes=hidden_sizes,
        seq_lens=seq_lens,
        variants=variants,
        seed=args.seed,
    )
    all_ok = True
    for case in reports:
        print(f"{case.description}: max_rel_err={case.max_rel_err:.3e}")
        for block in case.blocks:
            print(f"  {block.name}: {block.max_rel_err:.3e}")
        all_ok = all_ok and case.passed()
    print("gradcheck:", "ok" if all_ok else "FAILED")
    return 0 if all_ok else 1


def _add_data_flags(sub, with_pair: bool = True) -> None:
    if with_pair:
        sub.add_argument("--pair", help="two set letters, e.g. A,E (second set is the positive class)")
    sub.add_argument("--data", help="corpus root holding one directory per recording set")
    sub.add_argument(
        "--synthetic",
        nargs="?",
        const="default",
        help="use a generated corpus: 'default' or key=value list "
        f"({','.join(SYNTH_KEYS)}), e.g. f0=2,f1=10,noise=0.1",
    )
    sub.add_argument("--seq-len", type=_pos_int, dest="seq_len", help="sequence length (default 4097 on-disk, 128 synthetic)")
    sub.add_argument("--seed", type=_nonneg_int, default=0, help="master seed (default 0)")


def _bounded(cast, accept, requirement: str):
    """Argument type: cast the text, then reject values outside the bound."""

    def parse(text: str):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the cast in "invalid int value"
    return parse


_nonneg_int = _bounded(int, lambda v: v >= 0, "non-negative")
_pos_int = _bounded(int, lambda v: v >= 1, "a positive integer")
_pos_float = _bounded(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
_finite_float = _bounded(float, math.isfinite, "a finite number")
# The folds split each class 70/20/10, so n must be a positive multiple of 10.
_synth_n = _bounded(int, lambda v: v >= 1 and v % 10 == 0, "a positive multiple of 10")


def _add_train_flags(sub) -> None:
    sub.add_argument("--model", type=int, choices=(1, 2), default=1, help="architecture variant (default 1)")
    sub.add_argument("--folds", type=_pos_int, default=10, help="number of folds (default 10)")
    sub.add_argument("--epochs", type=_nonneg_int, default=20, help="training epochs per fold (default 20)")
    sub.add_argument("--batch", type=_pos_int, default=4, help="mini-batch size (default 4)")
    sub.add_argument("--lr", type=_pos_float, default=1e-3, help="learning rate (default 1e-3)")
    sub.add_argument("--standardize", action="store_true", help="per-sequence standardization (recorded in artifacts)")
    sub.add_argument("--jobs", type=_pos_int, default=1, help="parallel fold workers (default 1)")
    sub.add_argument("--out", default="runs", help="output directory (default ./runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eeglstm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="train one pair over k folds and write artifacts")
    _add_data_flags(train)
    _add_train_flags(train)
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True, help="checkpoint.json to load")
    ev.add_argument("--model", type=int, choices=(1, 2), help="assert the checkpoint's variant")
    ev.add_argument("--threshold", type=_finite_float, default=harness.DECISION_THRESHOLD)
    ev.add_argument("--out", help="directory for metrics.json (optional)")
    _add_data_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    rep = subs.add_parser("reproduce", help="run the full six-pair grid on an on-disk corpus")
    rep.add_argument("--data", required=True, help="corpus root holding sets A-E")
    rep.add_argument("--seq-len", type=_pos_int, dest="seq_len")
    rep.add_argument("--seed", type=_nonneg_int, default=0)
    _add_train_flags(rep)
    rep.set_defaults(func=cmd_reproduce)

    gen = subs.add_parser("gen-synth", help="write a synthetic surrogate corpus in the on-disk format")
    gen.add_argument("--spec", default="default", help="'default' or key=value list (n must be 100; values rounded to ints on disk)")
    gen.add_argument("--seq-len", type=_pos_int, dest="seq_len")
    gen.add_argument("--seed", type=_nonneg_int, default=0)
    gen.add_argument("--sets", default="A,E", help="set names for the two class directories (default A,E)")
    gen.add_argument("--out", default="synth", help="output directory (default ./synth)")
    gen.set_defaults(func=cmd_gen_synth)

    grad = subs.add_parser("gradcheck", help="finite-difference check of the backward pass")
    grad.add_argument("--hidden", type=_pos_int, help="hidden size (default: 4 and 8)")
    grad.add_argument("--steps", type=_pos_int, help="sequence length (default: 5 and 20)")
    grad.add_argument("--model", type=int, choices=(1, 2), help="variant (default: both)")
    grad.add_argument("--seed", type=_nonneg_int, default=0)
    grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except EegLstmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
