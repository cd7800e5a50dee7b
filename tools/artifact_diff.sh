#!/usr/bin/env bash
# Compare the artifacts and printed logs of two source trees, byte for byte.
#
# Usage: tools/artifact_diff.sh PARENT_TREE CHANGE_TREE
#
# Each tree is a checkout holding src/eeglstm. The standard commands below run
# once per tree, with that tree's src on PYTHONPATH and PYTHONDONTWRITEBYTECODE=1,
# in its own directory under one temporary directory. Every output path is
# relative to that directory, so both trees' logs name the same paths. Then
# `diff -r` compares the generated corpora, results.csv, curves.csv,
# result.json, checkpoint.json, metrics.json (of a model-1 and a model-2
# checkpoint), reproduce's results.csv (with its average row), curves_X_Y.csv
# and results.json, and every log (stdout, stderr and exit code of each
# command; the logs hold the printed results tables).
#
# Exit status: 0 when everything is identical and every command succeeded;
# 1 on any difference or failed command (the temporary directory is kept and
# named); 2 on bad usage.
set -u

if [ $# -ne 2 ] || [ ! -d "$1/src/eeglstm" ] || [ ! -d "$2/src/eeglstm" ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE (each a checkout holding src/eeglstm)" >&2
    exit 2
fi
parent_src=$(cd "$1/src" && pwd)
change_src=$(cd "$2/src" && pwd)
work=$(mktemp -d)

# step LOG ARGS...: run the CLI with ARGS; its stdout, stderr and exit code go to logs/LOG.
step() {
    local log="logs/$1"
    shift
    python3 -m eeglstm "$@" >"$log" 2>&1
    echo "exit $?" >>"$log"
}

# run_tree NAME SRC: the standard commands, run from $work/NAME.
run_tree() {
    mkdir -p "$work/$1/logs"
    (
        cd "$work/$1" || exit 1
        export PYTHONPATH="$2" PYTHONDONTWRITEBYTECODE=1
        step gen-synth.log gen-synth --spec amp=300,noise=40 --seq-len 128 --seed 5 --out corpus
        step train-corpus.log train --data corpus --pair A,E --seq-len 128 --folds 2 --epochs 2 --seed 7 \
            --out train-corpus
        step evaluate.log evaluate --checkpoint train-corpus/checkpoint.json --data corpus --pair A,E \
            --out evaluate
        step train-m1.log train --synthetic default --folds 2 --epochs 2 --seed 7 --out train-m1
        step train-m2.log train --synthetic default --model 2 --standardize --seq-len 64 --folds 2 \
            --epochs 2 --seed 7 --out train-m2
        # every synthetic key away from its default
        step train-synth-keys.log train --synthetic f0=3,f1=7,amp=2,noise=0.5,rate=50,n=20 --seq-len 48 --folds 2 \
            --epochs 1 --seed 5 --out train-synth-keys
        step train-m2-jobs.log train --synthetic default --model 2 --seq-len 32 --folds 3 --epochs 2 \
            --seed 3 --jobs 2 --out train-m2-jobs
        # 28 training rows per fold in batches of 3: every epoch ends on a 1-row batch, which numpy
        # multiplies with gemv
        step train-m2-row.log train --synthetic n=20 --model 2 --seq-len 24 --batch 3 --folds 2 --epochs 1 \
            --seed 9 --out train-m2-row
        step evaluate-m2.log evaluate --checkpoint train-m2-row/checkpoint.json --synthetic n=10 --seed 4 \
            --out evaluate-m2
        # five sets A-E for reproduce's six pairs; the third call rewrites D
        step gen-synth-ae.log gen-synth --spec amp=300,noise=40 --seq-len 32 --seed 11 --sets A,E --out corpus5
        step gen-synth-bd.log gen-synth --spec amp=300,noise=40 --seq-len 32 --seed 12 --sets B,D --out corpus5
        step gen-synth-cd.log gen-synth --spec amp=300,noise=40 --seq-len 32 --seed 13 --sets C,D --out corpus5
        step reproduce.log reproduce --data corpus5 --standardize --seq-len 32 --folds 2 --epochs 2 --seed 7 \
            --out reproduce
    )
}

run_tree parent "$parent_src"
run_tree change "$change_src"

status=0
failed=$(grep -L -x "exit 0" "$work"/parent/logs/*.log "$work"/change/logs/*.log)
if [ -n "$failed" ]; then
    echo "commands that failed (see their logs):" >&2
    echo "$failed" >&2
    status=1
fi
if ! diff -r "$work/parent" "$work/change"; then
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "identical: $(cd "$work/parent" && find . -type f ! -path './corpus/*' ! -path './corpus5/*' | sort | tr '\n' ' ')"
    rm -rf "$work"
else
    echo "artifact_diff: differences or failures; outputs kept in $work" >&2
fi
exit "$status"
