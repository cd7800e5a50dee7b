"""Compare the model-level results of two source trees bit for bit at the
paper's sequence length.

Usage: python3 tools/parity.py TREE_A TREE_B

Each tree is a checkout holding src/eeglstm. The script runs itself once per
tree (as `parity.py --fingerprint`), in a subprocess with that tree's src on
PYTHONPATH, and fingerprints these cases at T = 4097 for both model
variants, each from the same seeds:

- forward-backward B: the train-mode forward's probabilities (dropout on for
  model 2) and the flat gradient Model.backward writes, at batch B in
  {1, 2, 3, 4, 5, 20};
- scores N: Model.scores of N rows, N in {8, 40, 41}.

A case's fingerprint is the SHA-256 of its arrays' bytes. It reads only the
Model API (init_params, forward, backward's grad, scores), so it holds across
changes of internal layout. A tree takes about 23 s with one BLAS thread
(2 vCPU Xeon) and up to 1.5 GB (model 2 at batch 20).

Exit status: 0 and "parity: identical" when every case agrees; 1 when a case
differs (each one is named) or a subprocess fails; 2 on bad usage.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEQ_LEN = 4097
BATCHES = (1, 2, 3, 4, 5, 20)
SCORE_ROWS = (8, 40, 41)


def fingerprint() -> dict:
    """SHA-256 of every case, computed with the eeglstm found on sys.path."""
    import numpy as np

    from eeglstm.layers import ModelConfig, init_params

    def digest(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    cases = {}
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
    return cases


def run_tree(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--fingerprint"], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"parity: fingerprinting {tree} failed (exit {proc.returncode})")
    print(f"{tree}: {time.perf_counter() - start:.0f} s", flush=True)
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv == ["--fingerprint"]:
        print(json.dumps(fingerprint()))
        return 0
    if len(argv) != 2 or not all((Path(tree) / "src" / "eeglstm").is_dir() for tree in argv):
        print("usage: parity.py TREE_A TREE_B (each a checkout holding src/eeglstm)", file=sys.stderr)
        return 2
    first, second = (run_tree(Path(tree).resolve()) for tree in argv)
    differ = [case for case in first if first[case] != second.get(case)]
    for case in differ:
        print(f"differs: {case}")
    print(f"parity: {'identical' if not differ else 'different'} ({len(first) - len(differ)}/{len(first)} cases equal)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
