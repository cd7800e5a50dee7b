import pytest
from hypothesis import settings

from eeglstm import layers

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def corrupt_kernel_gradient(monkeypatch):
    """Make every LSTM layer's backward pass return a wrong kernel gradient,
    so negative controls can show the gradient check catches it."""
    real = layers.lstm_backward

    def corrupted(dh_out, cache, params):
        dx, (dkernel, drecurrent, dbias) = real(dh_out, cache, params)
        return dx, (dkernel * 1.01 + 0.01, drecurrent, dbias)

    monkeypatch.setattr(layers, "lstm_backward", corrupted)
