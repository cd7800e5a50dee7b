"""Finite-difference verification of the hand-derived backward passes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .layers import Model, ModelConfig, init_params
from .optim import bce_loss

REL_TOL = 1e-5
FD_EPS = 1e-5
BATCH = 3  # sequences per case

# Denominator floor for the relative error. A central difference of an O(1)
# loss at eps=1e-5 carries ~|f|*ulp/eps ~ 1.5e-11 absolute noise (observed up
# to 1.3e-11), so gradients smaller than the floor cannot be certified to
# five relative digits by any checker. Entries under the floor are instead
# held to an absolute tolerance of REL_TOL * floor = 1e-10, an order above
# the noise; anything >= 1e-5 in magnitude must meet the full relative bar.
DENOM_FLOOR = 1e-5


@dataclass(frozen=True)
class BlockReport:
    name: str
    max_rel_err: float


@dataclass(frozen=True)
class CaseReport:
    description: str
    blocks: tuple
    max_rel_err: float

    def passed(self) -> bool:
        return self.max_rel_err < REL_TOL


def relative_errors(analytic, numeric) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), DENOM_FLOOR)
    return np.abs(analytic - numeric) / denom


def _mean_loss(model: Model, x, y) -> float:
    losses, _ = bce_loss(model.scores(x), y)
    return float(np.mean(losses))


def numeric_gradient(model: Model, x, y) -> np.ndarray:
    """Central finite differences (step FD_EPS) of the mean BCE loss over all
    parameters.

    Perturbs model.params one entry at a time, in place, and restores it.
    """
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


def check_model(model: Model, x, y):
    """Compare analytic and numeric gradients block by block."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    analytic = analytic_gradient(model, x, y)
    numeric = numeric_gradient(model, x, y)
    errs = model.blocks(relative_errors(analytic, numeric))
    return [BlockReport(name=name, max_rel_err=float(block.max())) for name, block in errs.items()]


def run_gradcheck(hidden_sizes=(4, 8), seq_lens=(5, 20), variants=(1, 2), seed: int = 0):
    """Run the finite-difference suite over a grid of model shapes.

    Variant 2 cases use stacked hidden sizes (2h, h). Dropout stays in eval
    mode so the differentiated function is deterministic. Returns a list of
    CaseReport.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for variant, h, steps in product(variants, hidden_sizes, seq_lens):
        hidden = (h,) if variant == 1 else (2 * h, h)
        config = ModelConfig(variant=variant, seq_len=steps, hidden_sizes=hidden)
        model = init_params(config, int(rng.integers(2**63)))
        x = rng.standard_normal((BATCH, steps))
        y = (np.arange(BATCH) % 2).astype(np.float64)
        blocks = check_model(model, x, y)
        reports.append(
            CaseReport(
                description=f"variant={variant} hidden={hidden} steps={steps}",
                blocks=tuple(blocks),
                max_rel_err=max(b.max_rel_err for b in blocks),
            )
        )
    return reports
