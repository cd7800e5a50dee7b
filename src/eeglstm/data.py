"""Bonn-format EEG ingestion, binary pair datasets, seeded stratified fold
splits and synthetic surrogate corpora.

The on-disk format is one directory per recording set holding exactly 100
plain-text files (.txt/.TXT), each with one ASCII integer per line. Loading
applies no scaling, filtering or resampling: loaded values equal file values
exactly. Optional per-sequence standardization is a separate, explicitly
flagged step.

A PairDataset holds its recordings as one (2n, T) float64 array: rows 0..n-1
are the first set, rows n..2n-1 the second. Labels are given by position
(0 for the first set, 1 for the second), so no per-sample record is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError

SET_IDS = ("A", "B", "C", "D", "E")

# Directory / file-prefix codes used by the public distribution of the corpus.
BONN_CODES = {"A": "Z", "B": "O", "C": "N", "D": "F", "E": "S"}

BONN_SEQ_LEN = 4097
BONN_SET_SIZE = 100

TRAIN_FRACTION_TENTHS = 7
VAL_FRACTION_TENTHS = 2


@dataclass(frozen=True)
class RecordingSet:
    """All sequences of one recording set: a (count, T) array in filename order."""

    set_id: str
    sequences: np.ndarray


@dataclass(frozen=True)
class PairDataset:
    """Two-set binary classification corpus.

    `samples` is a (2n, T) array, n rows of the first set then n of the
    second; the second-named set is the positive class (label 1).
    `standardized` records whether per-sequence standardization was applied.
    """

    pair: tuple
    samples: np.ndarray
    standardized: bool = False

    @property
    def seq_len(self) -> int:
        return int(self.samples.shape[1])

    @property
    def n_per_class(self) -> int:
        return len(self.samples) // 2

    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(2, dtype=np.int64), self.n_per_class)

    def values(self) -> np.ndarray:
        """The (2n, T) samples array; the benchmark scripts read it by this name."""
        return self.samples


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint train/val/test index sets into a dataset's samples."""

    fold_index: int
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def resolve_set_dir(root, set_id: str) -> Path:
    """Find the directory of a set under `root` by letter or Bonn code."""
    if set_id not in SET_IDS:
        raise ValueError(f"unknown set id {set_id!r}, expected one of {SET_IDS}")
    root = Path(root)
    names = [set_id, BONN_CODES[set_id]]
    candidates = [n for base in names for n in (base, base.lower())]
    for name in candidates:
        p = root / name
        if p.is_dir():
            return p
    raise IngestionError(f"no directory for set {set_id} under {root} (tried {', '.join(candidates)})")


def _read_sequence(path: Path, expected_len: int) -> np.ndarray:
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise IngestionError(f"{path}: not ASCII text: byte {byte:#04x} at offset {exc.start}") from None
    lines = text.splitlines()
    values = []
    rejected = None
    for lineno, line in enumerate(lines, start=1):
        try:
            values.append(int(line.strip()))
        except ValueError:
            rejected = lineno
            break
    if rejected or "_" in text or "+" in text:
        # int() also takes digit separators and a plus sign, which the format
        # does not; the first bad line is looked for only once a file fails.
        lineno = next(n for n, line in enumerate(lines, start=1) if n == rejected or "_" in line or "+" in line)
        raise IngestionError(f"{path}:{lineno}: not an integer: {lines[lineno - 1].strip()!r}")
    if len(values) != expected_len:
        raise IngestionError(f"{path}: expected {expected_len} samples, found {len(values)}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        # Overflow grows with magnitude, so the largest value is one that overflows.
        lineno = 1 + max(range(len(values)), key=lambda n: abs(values[n]))
        raise IngestionError(f"{path}:{lineno}: integer beyond float64 range") from None


def load_bonn_set(
    directory,
    set_id: str,
    expected_len: int = BONN_SEQ_LEN,
    expected_count: int = BONN_SET_SIZE,
) -> RecordingSet:
    """Load one recording set from `directory` (the corpus root).

    Files are parsed in filename order; values are kept raw (no scaling).
    """
    set_dir = resolve_set_dir(directory, set_id)
    files = sorted(p for p in set_dir.iterdir() if p.suffix.lower() == ".txt")
    if len(files) != expected_count:
        raise IngestionError(f"{set_dir}: expected {expected_count} .txt files, found {len(files)}")
    sequences = np.stack([_read_sequence(p, expected_len) for p in files])
    return RecordingSet(set_id=set_id, sequences=sequences)


def make_pair_dataset(first: RecordingSet, second: RecordingSet) -> PairDataset:
    """Label the first set 0 and the second (target) set 1, in stable order."""
    lengths = {first.sequences.shape[1], second.sequences.shape[1]}
    if len(lengths) != 1:
        raise ValueError(f"sets have mixed sequence lengths: {sorted(lengths)}")
    if len(first.sequences) != len(second.sequences):
        raise ValueError(
            f"sets differ in size: {len(first.sequences)} vs {len(second.sequences)}"
        )
    samples = np.concatenate([first.sequences, second.sequences])
    return PairDataset(pair=(first.set_id, second.set_id), samples=samples)


def kfold_split(n_per_class: int, k: int, seed: int):
    """Generate k independent stratified 70/20/10 splits.

    Sample indices follow the PairDataset layout: 0..n-1 are class 0,
    n..2n-1 are class 1. Each fold reshuffles both classes with a generator
    seeded by (seed, fold_index), so folds are independent but reproducible.
    """
    if n_per_class % 10 != 0:
        raise ValueError(f"n_per_class must be divisible by 10, got {n_per_class}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_train = n_per_class * TRAIN_FRACTION_TENTHS // 10
    n_val = n_per_class * VAL_FRACTION_TENTHS // 10
    folds = []
    for fold in range(k):
        rng = np.random.default_rng(np.random.SeedSequence([seed, fold]))
        train, val, test = [], [], []
        for cls in (0, 1):
            perm = rng.permutation(n_per_class) + cls * n_per_class
            train.append(perm[:n_train])
            val.append(perm[n_train : n_train + n_val])
            test.append(perm[n_train + n_val :])
        folds.append(
            FoldSplit(
                fold_index=fold,
                train=np.concatenate(train),
                val=np.concatenate(val),
                test=np.concatenate(test),
            )
        )
    return folds


@dataclass(frozen=True)
class ToneSpec:
    """Sinusoid-plus-noise recipe for one synthetic class."""

    freq_hz: float
    amplitude: float
    noise_sd: float

    def __post_init__(self):
        if not np.isfinite([self.freq_hz, self.amplitude, self.noise_sd]).all():
            raise ValueError(f"spec values must be finite: {self}")
        if self.freq_hz < 0 or self.noise_sd < 0:
            raise ValueError(f"frequency and noise_sd must be non-negative: {self}")


# Desk-scale default length: two seconds at the CLI's default 64 Hz rate.
DEFAULT_SYNTH_SEQ_LEN = 128


def gen_synthetic(
    class0: ToneSpec,
    class1: ToneSpec,
    n_per_class: int,
    seq_len: int,
    sample_rate_hz: float,
    seed: int,
) -> PairDataset:
    """Deterministic surrogate corpus: amplitude*sin(2 pi f t) + Gaussian noise.

    The two sets are named syn0 (class 0) and syn1 (class 1).

    Raises ValueError if a generated value is not finite (float64 overflow).
    """
    if seq_len < 2:
        raise ValueError(f"seq_len must be >= 2, got {seq_len}")
    if not 0 < sample_rate_hz < np.inf:
        raise ValueError(f"sample_rate_hz must be positive and finite, got {sample_rate_hz}")
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    t = np.arange(seq_len, dtype=np.float64) / float(sample_rate_hz)
    rng = np.random.default_rng(int(seed))
    pair = ("syn0", "syn1")
    rows = []
    for spec, name in zip((class0, class1), pair):
        base = spec.amplitude * np.sin(2.0 * np.pi * spec.freq_hz * t)
        for i in range(n_per_class):
            with np.errstate(over="ignore"):
                values = base + rng.standard_normal(seq_len) * spec.noise_sd
            if not np.isfinite(values).all():
                raise ValueError(f"{name}-{i:03d}: generated values are not finite for {spec}")
            rows.append(values)
    return PairDataset(pair=pair, samples=np.stack(rows))


def standardize_dataset(ds: PairDataset) -> PairDataset:
    """Per-sequence (x - mean) / std; std is floored at 1e-12 for constants."""
    x = ds.samples
    scaled = (x - x.mean(axis=1, keepdims=True)) / np.maximum(x.std(axis=1, keepdims=True), 1e-12)
    return PairDataset(pair=ds.pair, samples=scaled, standardized=True)


def export_bonn_format(ds: PairDataset, out_dir, set_names):
    """Write a dataset as two Bonn-layout set directories named `set_names`.

    Values are rounded to the nearest integer (the format is integer-per-
    line); choose amplitudes accordingly when fidelity matters. Returns the
    two directory paths, class 0 first.
    """
    out_dir = Path(out_dir)
    n = ds.n_per_class
    dirs = []
    for name, rows in zip(set_names, (ds.samples[:n], ds.samples[n:])):
        target = out_dir / name
        target.mkdir(parents=True, exist_ok=True)
        for i, row in enumerate(rows, start=1):
            lines = "\n".join(str(int(round(float(v)))) for v in row)
            (target / f"{name}{i:03d}.txt").write_text(lines + "\n", encoding="ascii")
        dirs.append(target)
    return tuple(dirs)
