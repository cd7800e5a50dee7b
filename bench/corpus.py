"""Seeded EEG-like corpus in the Bonn on-disk layout.

Each set is one directory named by the distribution's code (A=Z, B=O, C=N,
D=F, E=S) holding 100 files ``<code>001.txt`` .. ``<code>100.txt`` with one
ASCII integer per line, 4097 lines per file: the layout ``eeglstm`` loads.
The benchmark program only ever sees these files.

Every recording is a seeded mix of a background with a 1/f amplitude
spectrum and the set's dominant rhythm, so the classes differ in spectrum
and amplitude:

- A (Z): alpha rhythm at 8-12 Hz over a moderate background, about 60 uV rms;
- D (F): theta rhythm at 4-7 Hz with sharp transients, about 110 uV rms;
- E (S): spike-and-wave near 3 Hz with harmonics, several hundred uV rms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 173.61
SEQ_LEN = 4097
SET_SIZE = 100
BONN_CODES = {"A": "Z", "B": "O", "C": "N", "D": "F", "E": "S"}

# set -> (rhythm band Hz, rhythm amplitude range, background rms, harmonics, transients)
SET_SPECS = {
    "A": ((8.0, 12.0), (40.0, 80.0), 40.0, 1, False),
    "D": ((4.0, 7.0), (70.0, 120.0), 60.0, 2, True),
    "E": ((2.5, 3.5), (250.0, 450.0), 90.0, 4, False),
}


def _pink_background(rng, n: int, rms: float) -> np.ndarray:
    """(n, SEQ_LEN) noise with a 1/f power spectrum above 0.5 Hz, scaled to rms."""
    freqs = np.fft.rfftfreq(SEQ_LEN, d=1.0 / SAMPLE_RATE_HZ)
    shape = np.where(freqs > 0.5, 1.0 / np.sqrt(np.maximum(freqs, 0.5)), 0.0)
    spec = (rng.standard_normal((n, freqs.size)) + 1j * rng.standard_normal((n, freqs.size))) * shape
    noise = np.fft.irfft(spec, n=SEQ_LEN, axis=1)
    return noise * (rms / noise.std(axis=1, keepdims=True))


def make_set(set_id: str, seed: int, n: int = SET_SIZE) -> np.ndarray:
    """(n, SEQ_LEN) int64 recordings of one set; equal seeds give equal arrays."""
    (f_lo, f_hi), (a_lo, a_hi), rms, harmonics, transients = SET_SPECS[set_id]
    rng = np.random.default_rng(np.random.SeedSequence([seed, ord(set_id)]))
    t = np.arange(SEQ_LEN) / SAMPLE_RATE_HZ
    f0 = rng.uniform(f_lo, f_hi, (n, 1))
    amp = rng.uniform(a_lo, a_hi, (n, 1))
    signal = _pink_background(rng, n, rms)
    for k in range(1, harmonics + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi, (n, 1))
        signal += (amp / k) * np.sin(2.0 * np.pi * k * f0 * t + phase)
    if transients:
        # Sparse sharp waves: one-sided exponential kernels at random onsets.
        onsets = rng.random((n, SEQ_LEN)) < 0.004
        kernel = np.exp(-np.arange(12) / 3.0)
        spikes = np.stack([np.convolve(row, kernel)[:SEQ_LEN] for row in onsets.astype(float)])
        signal += spikes * rng.uniform(1.0, 2.0, (n, 1)) * amp
    return np.rint(signal).astype(np.int64)


def write_set(root, set_id: str, seed: int) -> int:
    """Write one set under root in the Bonn layout; returns bytes written."""
    code = BONN_CODES[set_id]
    target = Path(root) / code
    target.mkdir(parents=True, exist_ok=True)
    total = 0
    for i, row in enumerate(make_set(set_id, seed), start=1):
        text = "\n".join(map(str, row.tolist())) + "\n"
        (target / f"{code}{i:03d}.txt").write_text(text, encoding="ascii")
        total += len(text)
    return total


def write_pair(root, pair, seed: int) -> int:
    """Write both sets of a pair; returns bytes written."""
    return sum(write_set(root, set_id, seed) for set_id in pair)

