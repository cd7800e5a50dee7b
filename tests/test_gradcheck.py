import numpy as np
import pytest

from eeglstm.gradcheck import (
    REL_TOL,
    analytic_gradient,
    check_model,
    numeric_gradient,
    relative_errors,
    run_gradcheck,
)
from eeglstm.layers import ModelConfig, init_params
from eeglstm.optim import bce_loss


def test_small_grid_passes():
    reports = run_gradcheck(hidden_sizes=(4,), seq_lens=(5,), variants=(1, 2))
    for case in reports:
        assert case.passed(), f"{case.description}: {case.max_rel_err}"


def test_perturbed_backward_is_caught(corrupt_kernel_gradient):
    reports = run_gradcheck(hidden_sizes=(4,), seq_lens=(5,), variants=(1,))
    assert not reports[0].passed()
    assert [b.name for b in reports[0].blocks if b.max_rel_err >= REL_TOL] == ["lstm1.kernel"]


def test_block_names_cover_all_parameters():
    reports = run_gradcheck(hidden_sizes=(4,), seq_lens=(5,), variants=(2,))
    names = [b.name for b in reports[0].blocks]
    assert names == [
        "lstm1.kernel",
        "lstm1.recurrent",
        "lstm1.bias",
        "lstm2.kernel",
        "lstm2.recurrent",
        "lstm2.bias",
        "dense.weights",
        "dense.bias",
    ]


def test_relative_error_floor_behaviour():
    a = np.array([0.0, 1.0])
    n = np.array([0.0, 1.0 + 1e-7])
    errs = relative_errors(a, n)
    assert errs[0] == 0.0
    assert errs[1] == pytest.approx(1e-7, rel=1e-3)


def test_train_mode_dropout_backward_matches_fd_with_fixed_mask():
    # freeze the mask by reseeding the stream on every forward evaluation
    config = ModelConfig(variant=2, seq_len=6, hidden_sizes=(6, 3))
    model = init_params(config, 8)
    x = np.random.default_rng(0).standard_normal((2, 6))
    y = np.array([1.0, 0.0])

    def loss_at():
        probs, _ = model.forward(x, train=True, rng=np.random.default_rng(1234))
        losses, _ = bce_loss(probs, y)
        return float(losses.mean())

    probs, cache = model.forward(x, train=True, rng=np.random.default_rng(1234))
    _, dloss = bce_loss(probs, y)
    model.backward(cache, dloss / len(y))
    analytic = model.grad.copy()

    params = model.params
    eps = 1e-5
    numeric = np.empty_like(params)
    for i in range(params.size):
        base = params[i]
        params[i] = base + eps
        f_plus = loss_at()
        params[i] = base - eps
        f_minus = loss_at()
        params[i] = base
        numeric[i] = (f_plus - f_minus) / (2 * eps)

    assert relative_errors(analytic, numeric).max() < REL_TOL


def test_gradient_apis_agree_with_each_other():
    config = ModelConfig(variant=1, seq_len=5, hidden_sizes=(3,))
    model = init_params(config, 2)
    x = np.random.default_rng(2).standard_normal((2, 5))
    y = np.array([0.0, 1.0])
    a = analytic_gradient(model, x, y)
    n = numeric_gradient(model, x, y)
    blocks = check_model(model, x, y)
    assert max(b.max_rel_err for b in blocks) == pytest.approx(relative_errors(a, n).max())
