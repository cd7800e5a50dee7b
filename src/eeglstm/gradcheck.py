"""Finite-difference verification of the hand-derived backward passes."""

from __future__ import annotations

from itertools import product

import numpy as np

from .layers import Model, ModelConfig, init_params
from .optim import bce_loss

REL_TOL = 1e-5
FD_EPS = 1e-5
BATCH = 3  # sequences per case
SEED = 0  # the grid draws every case's parameters and inputs from this one stream

# The default grid of cases: every variant at every hidden size and length.
GRID_HIDDEN_SIZES = (4, 8)
GRID_SEQ_LENS = (5, 20)
GRID_VARIANTS = (1, 2)

# Denominator floor for the relative error. A central difference of an O(1)
# loss at eps=1e-5 carries ~|f|*ulp/eps ~ 1.5e-11 absolute noise (observed up
# to 1.3e-11), so gradients smaller than the floor cannot be certified to
# five relative digits by any checker. Entries under the floor are instead
# held to an absolute tolerance of REL_TOL * floor = 1e-10, an order above
# the noise; anything >= 1e-5 in magnitude must meet the full relative bar.
DENOM_FLOOR = 1e-5


def relative_errors(analytic, numeric) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), DENOM_FLOOR)
    return np.abs(analytic - numeric) / denom


def _mean_loss(model: Model, x, y) -> float:
    losses, _ = bce_loss(model.scores(x), y)
    return float(np.mean(losses))


def numeric_gradient(model: Model, x, y) -> np.ndarray:
    """Central finite differences (step FD_EPS) of the mean BCE loss over all
    parameters; perturbs model.params one entry at a time, in place, and restores it."""
    params = model.params
    grad = np.empty_like(params)
    for i in range(params.size):
        base = params[i]
        params[i] = base + FD_EPS
        f_plus = _mean_loss(model, x, y)
        params[i] = base - FD_EPS
        f_minus = _mean_loss(model, x, y)
        params[i] = base
        grad[i] = (f_plus - f_minus) / (2.0 * FD_EPS)
    return grad


def analytic_gradient(model: Model, x, y) -> np.ndarray:
    """Backward-pass gradients of the mean BCE loss (flat)."""
    probs, cache = model.forward(x, train=False)
    _, dloss = bce_loss(probs, y)
    model.backward(cache, dloss / len(y))
    return model.grad.copy()


def run_gradcheck(hidden_sizes=GRID_HIDDEN_SIZES, seq_lens=GRID_SEQ_LENS, variants=GRID_VARIANTS) -> dict:
    """Compare analytic and numeric gradients over a grid of model shapes.

    Returns {case description: {block name: largest relative error}}, blocks
    in layout order. Variant 2 cases use stacked hidden sizes (2h, h). Dropout
    stays in eval mode so the differentiated function is deterministic.
    """
    rng = np.random.default_rng(SEED)
    errors = {}
    for variant, h, steps in product(variants, hidden_sizes, seq_lens):
        hidden = (h,) if variant == 1 else (2 * h, h)
        model = init_params(ModelConfig(variant=variant, seq_len=steps, hidden_sizes=hidden), int(rng.integers(2**63)))
        x = rng.standard_normal((BATCH, steps))
        y = (np.arange(BATCH) % 2).astype(np.float64)
        rel = relative_errors(analytic_gradient(model, x, y), numeric_gradient(model, x, y))
        errors[f"variant={variant} hidden={hidden} steps={steps}"] = {
            name: float(block.max()) for name, block in model.blocks(rel).items()
        }
    return errors
