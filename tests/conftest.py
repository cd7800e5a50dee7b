import os
import subprocess

import numpy as np
import pytest
from hypothesis import settings

from eeglstm import harness, layers

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Whether numpy multiplies with OpenBLAS, whose rounding some tests pin bit for bit.
try:
    OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except TypeError:  # numpy < 1.25 cannot report its BLAS as data
    OPENBLAS = False


@pytest.fixture
def corrupt_kernel_gradient(monkeypatch):
    """Make every LSTM layer's backward pass return a wrong kernel gradient,
    so negative controls can show the gradient check catches it."""
    real = layers.lstm_backward

    def corrupted(dh_out, cache, params):
        dx, (dkernel, drecurrent, dbias) = real(dh_out, cache, params)
        return dx, (dkernel * 1.01 + 0.01, drecurrent, dbias)

    monkeypatch.setattr(layers, "lstm_backward", corrupted)


@pytest.fixture
def two_cpus(monkeypatch):
    """harness.cpu_count sees two CPUs in the affinity mask, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def worker_counts(monkeypatch):
    """The number of worker processes each map_in_workers call starts; the calls still run."""
    counts, real_map, real_popen = [], harness.map_in_workers, subprocess.Popen

    def popen(*args, **kwargs):
        counts[-1] += 1
        return real_popen(*args, **kwargs)

    def counted(*args):
        counts.append(0)
        return real_map(*args)

    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(harness, "map_in_workers", counted)
    return counts
