"""Check that two source trees give identical results: the model API bit for
bit at the paper's sequence length, and every file and log of the standard
CLI commands byte for byte.

Usage: python3 tools/parity.py TREE_A TREE_B

Each tree is a checkout holding src/eeglstm. The script runs itself once per
tree (as `parity.py --fingerprint`) in a subprocess with that tree's src on
PYTHONPATH, in a fresh temporary work directory. That subprocess, and every
command it runs, inherits the environment, so to compare at N BLAS threads
run `OPENBLAS_NUM_THREADS=N OMP_NUM_THREADS=N MKL_NUM_THREADS=N python3
tools/parity.py TREE_A TREE_B`. Only the model cases follow N: the CLI
commands compute on one BLAS thread at any N. The cases, from fixed seeds:

- model V forward-backward B: the train-mode forward's probabilities (dropout
  on for model 2) and the flat gradient Model.backward writes, at T = 4097
  and batch B in {1, 2, 3, 4, 5, 20};
- model V scores N: Model.scores of N rows at T = 4097, N in {8, 40, 41};
- model V evaluate N: harness.evaluate's raw scores of N rows at T = 4097,
  N in {81, 200}: several chunks, 81 ending on a 1-row tail, which evaluate
  may score in worker processes;
- file PATH: every file that COMMANDS, run in order as `python -m eeglstm`,
  leave in the work directory: corpora, artifacts, and logs/NAME.log with
  the command's merged stdout and stderr and its exit code.

That makes 772 cases. A case's fingerprint is the SHA-256 of its bytes. The
model cases read only the Model API and harness.evaluate, so they hold across
changes of internal layout. A tree takes about 35-50 s (2 vCPU Xeon) and up
to 1.5 GB.

Exit status: 0 and "parity: identical" when every case of either tree agrees
and every command exits 0; 1 when a case differs or exists in one tree only,
or a command or a fingerprint process fails (each is named, and both work
directories are kept for `diff -r`); 2 on bad usage.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEQ_LEN = 4097
BATCHES = (1, 2, 3, 4, 5, 20)
SCORE_ROWS = (8, 40, 41)
EVALUATE_ROWS = (81, 200)

# log name -> arguments; every path is relative to the work directory, so both trees' logs print the same paths
COMMANDS = {
    "gen-synth": "gen-synth --spec amp=300,noise=40 --seq-len 128 --seed 5 --out corpus",
    "train-corpus": "train --data corpus --pair A,E --seq-len 128 --folds 2 --epochs 2 --seed 7 --out train-corpus",
    "evaluate": "evaluate --checkpoint train-corpus/checkpoint.json --data corpus --pair A,E --out evaluate",
    "train-m1": "train --synthetic default --folds 2 --epochs 2 --seed 7 --out train-m1",
    "train-m2": "train --synthetic default --model 2 --standardize --seq-len 64 --folds 2 --epochs 2 --seed 7 "
    "--out train-m2",
    # a standardized checkpoint: evaluate standardizes its 200 recordings, 5 chunks for the scoring workers;
    # noise=1, because on the default corpus every metric reads 1.0, standardized or not
    "evaluate-std": "evaluate --checkpoint train-m2/checkpoint.json --synthetic noise=1 --seed 2 --out evaluate-std",
    # every synthetic key away from its default
    "train-synth-keys": "train --synthetic f0=3,f1=7,amp=2,noise=0.5,rate=50,n=20 --seq-len 48 --folds 2 "
    "--epochs 1 --seed 5 --out train-synth-keys",
    # three folds: fold workers on any host with two or more CPUs
    "train-m2-jobs": "train --synthetic default --model 2 --seq-len 32 --folds 3 --epochs 2 --seed 3 "
    "--out train-m2-jobs",
    # 28 training rows per fold in batches of 3: every epoch ends on a 1-row batch, which numpy
    # multiplies with gemv
    "train-m2-row": "train --synthetic n=20 --model 2 --seq-len 24 --batch 3 --folds 2 --epochs 1 --seed 9 "
    "--out train-m2-row",
    "evaluate-m2": "evaluate --checkpoint train-m2-row/checkpoint.json --synthetic n=10 --seed 4 --out evaluate-m2",
    # five sets A-E for reproduce's six pairs; the third call rewrites D
    "gen-synth-ae": "gen-synth --spec amp=300,noise=40 --seq-len 32 --seed 11 --sets A,E --out corpus5",
    "gen-synth-bd": "gen-synth --spec amp=300,noise=40 --seq-len 32 --seed 12 --sets B,D --out corpus5",
    "gen-synth-cd": "gen-synth --spec amp=300,noise=40 --seq-len 32 --seed 13 --sets C,D --out corpus5",
    "reproduce": "reproduce --data corpus5 --standardize --seq-len 32 --folds 2 --epochs 2 --seed 7 --out reproduce",
    "gradcheck": "gradcheck --hidden 4 --steps 5",
}


def fingerprint() -> dict:
    """{"cases": {case: SHA-256}, "failed": [command]}, with the eeglstm on sys.path, in the current directory."""
    from types import SimpleNamespace

    import numpy as np

    from eeglstm.harness import evaluate
    from eeglstm.layers import ModelConfig, init_params

    def digest(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    cases, failed = {}, []
    for variant in (1, 2):
        model = init_params(ModelConfig(variant=variant, seq_len=SEQ_LEN), variant)
        rng = np.random.default_rng(variant)
        for batch in BATCHES:
            x = rng.standard_normal((batch, SEQ_LEN))
            labels = np.arange(batch) % 2
            probs, cache = model.forward(x, train=True, rng=np.random.default_rng(batch))
            model.backward(cache, (probs - labels) / batch)
            del cache
            cases[f"model {variant} forward-backward B={batch}"] = digest(probs, model.grad)
        for rows in SCORE_ROWS:
            cases[f"model {variant} scores N={rows}"] = digest(model.scores(rng.standard_normal((rows, SEQ_LEN))))
        for rows in EVALUATE_ROWS:
            data = SimpleNamespace(samples=rng.standard_normal((rows, SEQ_LEN)), labels=lambda: np.arange(rows) % 2)
            cases[f"model {variant} evaluate N={rows}"] = digest(evaluate(model, data)[1])
    Path("logs").mkdir()
    for name, args in COMMANDS.items():
        cmd = [sys.executable, "-m", "eeglstm", *args.split()]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        Path(f"logs/{name}.log").write_bytes(proc.stdout + f"exit {proc.returncode}\n".encode())
        if proc.returncode != 0:
            failed.append(f"{name} (exit {proc.returncode}, see logs/{name}.log)")
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        cases[f"file {path.as_posix()}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"cases": cases, "failed": failed}


def compare(runs) -> tuple[list, int]:
    """The report and exit status for [(tree, fingerprint or None if fingerprinting failed)] of two
    trees. It names every failed command and every case that differs or exists in one tree only."""
    lines = [f"fingerprinting failed: {tree}" for tree, run in runs if run is None]
    if lines:
        return lines + ["parity: failed"], 1
    failed = [f"failed in {tree}: {command}" for tree, run in runs for command in run["failed"]]
    first, second = (run["cases"] for _, run in runs)
    cases = sorted(first.keys() | second.keys())
    differ = []
    for case in cases:
        holders = [tree for tree, run in runs if case in run["cases"]]
        if len(holders) == 1:
            differ.append(f"only in {holders[0]}: {case}")
        elif first[case] != second[case]:
            differ.append(f"differs: {case}")
    verdict = "failed" if failed else "different" if differ else "identical"
    summary = f"parity: {verdict} ({len(cases) - len(differ)}/{len(cases)} cases equal)"
    return failed + differ + [summary], int(verdict != "identical")


def run_tree(tree: Path, work: Path):
    """The tree's fingerprint, or None (its stderr printed) if the fingerprint process fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--fingerprint"]
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    print(f"{tree}: {time.perf_counter() - start:.0f} s", flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv == ["--fingerprint"]:
        print(json.dumps(fingerprint()))
        return 0
    if len(argv) != 2 or not all((Path(tree) / "src" / "eeglstm").is_dir() for tree in argv):
        print("usage: parity.py TREE_A TREE_B (each a checkout holding src/eeglstm)", file=sys.stderr)
        return 2
    works = [(Path(tree).resolve(), Path(tempfile.mkdtemp(prefix="parity-"))) for tree in argv]
    lines, status = compare([(tree, run_tree(tree, work)) for tree, work in works])
    print("\n".join(lines))
    if status:
        print("work directories kept:", *(work for _, work in works))
    else:
        for _, work in works:
            shutil.rmtree(work)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
