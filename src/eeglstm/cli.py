"""Command-line interface, run by eeglstm.__main__.

Subcommands: train, evaluate, reproduce, gen-synth, gradcheck. Exit codes:
0 success, 1 runtime/data failure, 2 usage error. Every run prints its full
effective configuration before computing.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import checkpoint as ckpt
from . import data as datamod
from . import gradcheck as gc
from . import harness
from .errors import EegLstmError
from .metrics import DECISION_THRESHOLD
from .optim import TrainConfig

SYNTH_KEYS = tuple(f.name for f in fields(datamod.SynthSpec))


def _parse_pair(text: str, parser):
    parts = [p.strip().upper() for p in text.split(",")]
    if len(parts) != 2 or any(p not in datamod.SET_IDS for p in parts) or parts[0] == parts[1]:
        parser.error(f"--pair must name two distinct sets out of {','.join(datamod.SET_IDS)}, got {text!r}")
    return parts[0], parts[1]


def _parse_synth_spec(text: str, parser, flag: str = "--synthetic") -> datamod.SynthSpec:
    values = {}
    for item in [] if text == "default" else text.split(","):
        if "=" not in item:
            parser.error(f"{flag} entries must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in SYNTH_KEYS:
            parser.error(f"{flag}: unknown synthetic key {key!r}, expected one of {', '.join(SYNTH_KEYS)}")
        if key in values:
            parser.error(f"{flag}: synthetic key {key!r} given more than once")
        try:
            values[key] = _synth_n(value) if key == "n" else float(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"{flag}: bad value for synthetic key {key!r}: {exc}")
    try:
        return datamod.SynthSpec(**values)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _print_config(title: str, items: dict) -> None:
    print(f"== {title} ==")
    for key, value in items.items():
        print(f"  {key} = {value}")


def _check_data_flags(args, parser):
    """Check --data/--pair/--synthetic without reading anything: returns the
    pair of set names for --data, or the SynthSpec for --synthetic."""
    if args.data and args.synthetic:
        parser.error("--data and --synthetic are mutually exclusive")
    if not args.data and not args.synthetic:
        parser.error("a data source is required: --data DIR with --pair, or --synthetic")
    if args.data:
        if not args.pair:
            parser.error("--data requires --pair X,Y")
        return _parse_pair(args.pair, parser)
    if args.pair:
        parser.error("--pair applies only with --data; --synthetic names its own classes")
    return _parse_synth_spec(args.synthetic, parser)


def _resolve_dataset(args, parser, checked, seq_len, standardize):
    """Build the dataset from what _check_data_flags returned, standardized if asked; seq_len None means
    the source's default."""
    if args.data:
        seq_len = datamod.BONN_SEQ_LEN if seq_len is None else seq_len
        first, second = (datamod.load_bonn_set(args.data, name, expected_len=seq_len) for name in checked)
        dataset = datamod.make_pair_dataset(first, second)
        source = f"bonn:{args.data}"
    else:
        seq_len = datamod.DEFAULT_SYNTH_SEQ_LEN if seq_len is None else seq_len
        try:
            dataset = datamod.gen_synthetic(checked, seq_len, args.seed)
        except ValueError as exc:
            parser.error(f"--synthetic: {exc}")
        source = f"synthetic:{args.synthetic}"
    return (datamod.standardize_dataset(dataset) if standardize else dataset), source


def _train_and_write(args, title: str, items: dict, train) -> list:
    """Echo the command's items, --out and the TrainConfig from the flags; create --out; write the
    results of train(tcfg) with harness.write_run and print results.csv. Returns the written paths."""
    tcfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs, seed=args.seed)
    _print_config(title, {**items, "out": args.out, **asdict(tcfg)})
    Path(args.out).mkdir(parents=True, exist_ok=True)  # a bad --out fails before training, not after
    table, paths = harness.write_run(args.out, train(tcfg))
    print(table, end="")
    return paths


def cmd_train(args, parser) -> int:
    dataset, source = _resolve_dataset(args, parser, _check_data_flags(args, parser), args.seq_len, args.standardize)
    items = {"source": source, "pair": "/".join(dataset.pair), "model": args.model, "folds": args.folds,
             "seq_len": dataset.seq_len, "standardize": dataset.standardized}
    paths = _train_and_write(args, "train", items, lambda tcfg: [
        harness.run_experiment(dataset, args.model, args.folds, args.seed, tcfg, jobs=harness.cpu_count())
    ])
    print(f"wrote {', '.join(map(str, paths))}")
    return 0


def cmd_evaluate(args, parser) -> int:
    checked = _check_data_flags(args, parser)  # usage errors come before reading the checkpoint
    model, meta = ckpt.load_checkpoint(args.checkpoint, expect_variant=args.model)
    dataset, source = _resolve_dataset(args, parser, checked, model.config.seq_len, meta["standardized"])
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
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)  # a bad --out fails before scoring, not after
    report, _ = harness.evaluate(model, dataset, threshold=args.threshold)
    metrics = asdict(report)
    for key, value in metrics.items():
        print(f"  {key} = {value}")
    if args.out:
        harness.write_json(Path(args.out) / "metrics.json", metrics)
        print(f"wrote {Path(args.out) / 'metrics.json'}")
    return 0


def cmd_reproduce(args, parser) -> int:
    items = {"data": args.data, "folds": args.folds, "seq_len": args.seq_len, "standardize": args.standardize}
    _train_and_write(args, "reproduce", items, lambda tcfg: harness.run_reproduction(
        args.data, args.folds, args.seed, tcfg, seq_len=args.seq_len, standardize=args.standardize
    ))
    print(f"wrote results under {Path(args.out)}")
    return 0


def cmd_gen_synth(args, parser) -> int:
    spec = _parse_synth_spec(args.spec, parser, flag="--spec")
    if spec.n != datamod.BONN_SET_SIZE:
        # --data loads exactly BONN_SET_SIZE files per set, so any other n is unloadable.
        parser.error(f"--spec: n must be {datamod.BONN_SET_SIZE} (files per on-disk set), got {spec.n}")
    set_names = _parse_pair(args.sets, parser)
    _print_config(
        "gen-synth",
        {"spec": asdict(spec), "seq_len": args.seq_len, "seed": args.seed, "sets": "/".join(set_names), "out": args.out},
    )
    try:
        dataset = datamod.gen_synthetic(spec, args.seq_len, args.seed)
    except ValueError as exc:
        parser.error(f"--spec: {exc}")
    dirs = datamod.export_bonn_format(dataset, args.out, set_names=set_names)
    for d in dirs:
        print(f"wrote {d}")
    return 0


def cmd_gradcheck(args, parser) -> int:
    hidden_sizes = (args.hidden,) if args.hidden else gc.GRID_HIDDEN_SIZES
    seq_lens = (args.steps,) if args.steps else gc.GRID_SEQ_LENS
    variants = (args.model,) if args.model else gc.GRID_VARIANTS
    _print_config(
        "gradcheck",
        {
            "hidden_sizes": hidden_sizes,
            "seq_lens": seq_lens,
            "variants": variants,
            "seed": gc.SEED,
            "eps": gc.FD_EPS,
            "tolerance": gc.REL_TOL,
        },
    )
    errors = gc.run_gradcheck(hidden_sizes, seq_lens, variants)
    for description, blocks in errors.items():
        print(f"{description}: max_rel_err={max(blocks.values()):.3e}")
        for name, err in blocks.items():
            print(f"  {name}: {err:.3e}")
    all_ok = all(err < gc.REL_TOL for blocks in errors.values() for err in blocks.values())
    print("gradcheck:", "ok" if all_ok else "FAILED")
    return 0 if all_ok else 1


def _add_data_flags(sub) -> None:
    sub.add_argument("--pair", help="two set letters, e.g. A,E (second set is the positive class)")
    sub.add_argument("--data", help="corpus root holding one directory per recording set")
    sub.add_argument(
        "--synthetic",
        nargs="?",
        const="default",
        help="use a generated corpus: 'default' or key=value list "
        f"({','.join(SYNTH_KEYS)}), e.g. f0=2,f1=10,noise=0.1",
    )
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
    recipe = TrainConfig()
    sub.add_argument("--folds", type=_pos_int, default=10, help="number of folds (default %(default)s)")
    sub.add_argument("--epochs", type=_nonneg_int, default=recipe.epochs, help="training epochs per fold (default %(default)s)")
    sub.add_argument("--batch", type=_pos_int, default=recipe.batch_size, help="mini-batch size (default %(default)s)")
    sub.add_argument("--lr", type=_pos_float, default=recipe.learning_rate, help="learning rate (default %(default)s)")
    sub.add_argument("--standardize", action="store_true", help="per-sequence standardization (recorded in artifacts)")
    sub.add_argument("--out", default="runs", help="output directory (default ./runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eeglstm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="train one pair over k folds and write artifacts")
    train.add_argument("--model", type=int, choices=(1, 2), default=1, help="architecture variant (default 1)")
    train.add_argument("--seq-len", type=_pos_int, dest="seq_len", help="sequence length (default 4097 on-disk, 128 synthetic)")
    _add_data_flags(train)
    _add_train_flags(train)
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True, help="checkpoint file to load (train writes one)")
    ev.add_argument("--model", type=int, choices=(1, 2), help="assert the checkpoint's variant")
    ev.add_argument("--threshold", type=_finite_float, default=DECISION_THRESHOLD)
    ev.add_argument("--out", help="directory for metrics.json (optional)")
    _add_data_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    rep = subs.add_parser("reproduce", help="run the full six-pair grid on an on-disk corpus")
    rep.add_argument("--data", required=True, help="corpus root holding sets A-E")
    rep.add_argument(
        "--seq-len", type=_pos_int, dest="seq_len", default=datamod.BONN_SEQ_LEN, help="sequence length (default %(default)s)"
    )
    rep.add_argument("--seed", type=_nonneg_int, default=0)
    _add_train_flags(rep)
    rep.set_defaults(func=cmd_reproduce)

    gen = subs.add_parser("gen-synth", help="write a synthetic surrogate corpus in the on-disk format")
    gen.add_argument("--spec", default="default", help="'default' or key=value list (n must be 100; values rounded to ints on disk)")
    gen.add_argument(
        "--seq-len", type=_pos_int, dest="seq_len", default=datamod.DEFAULT_SYNTH_SEQ_LEN, help="lines per file (default %(default)s)"
    )
    gen.add_argument("--seed", type=_nonneg_int, default=0)
    gen.add_argument("--sets", default="A,E", help="set names for the two class directories (default A,E)")
    gen.add_argument("--out", default="synth", help="output directory (default ./synth)")
    gen.set_defaults(func=cmd_gen_synth)

    grad = subs.add_parser("gradcheck", help="finite-difference check of the backward pass")
    grad.add_argument("--hidden", type=_pos_int, help=f"hidden size (default: each of {gc.GRID_HIDDEN_SIZES})")
    grad.add_argument("--steps", type=_pos_int, help=f"sequence length (default: each of {gc.GRID_SEQ_LENS})")
    grad.add_argument("--model", type=int, choices=(1, 2), help=f"variant (default: each of {gc.GRID_VARIANTS})")
    grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (EegLstmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
