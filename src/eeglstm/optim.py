"""Binary cross-entropy loss and the Adam optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

# Predicted probabilities are clipped to [PROB_CLIP, 1 - PROB_CLIP] before the
# logs so a saturated output cannot produce an infinite loss.
PROB_CLIP = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run. Adam's decay rates and epsilon
    are fixed at the defaults of Kingma & Ba (2015, arXiv:1412.6980); they
    stay fields so that every config echo records them."""

    learning_rate: float = 1e-3
    beta1: float = field(default=0.9, init=False)
    beta2: float = field(default=0.999, init=False)
    epsilon: float = field(default=1e-8, init=False)
    batch_size: int = 4
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def bce_loss(p, y):
    """Binary cross-entropy and its derivative with respect to `p`.

    `p` is clipped to [1e-7, 1 - 1e-7] and the derivative is evaluated at the
    clipped value, so both stay finite. Arrays are processed elementwise.

    Returns (loss, dloss_dp).
    """
    p_arr = np.asarray(p, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if not np.all((y_arr == 0.0) | (y_arr == 1.0)):
        raise ValueError("labels must be 0 or 1")
    clipped = np.clip(p_arr, PROB_CLIP, 1.0 - PROB_CLIP)
    loss = -(y_arr * np.log(clipped) + (1.0 - y_arr) * np.log1p(-clipped))
    grad = -y_arr / clipped + (1.0 - y_arr) / (1.0 - clipped)
    return loss, grad


def adam_step(params, grads, m, v, t: int, cfg: TrainConfig) -> None:
    """One Adam update with bias correction, in place.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2; params <- params - the step
    lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m/(1-b1^t), v_hat =
    v/(1-b2^t) and t the 1-based number of this step. params, m and v are
    float64 vectors of one length, updated in place; nothing is returned.
    """
    if params.ndim != 1 or not (params.shape == grads.shape == m.shape == v.shape):
        raise ShapeError(
            "adam_step: mismatched lengths "
            f"params={params.shape} grads={grads.shape} m={m.shape} v={v.shape}"
        )
    m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * grads
    v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * grads**2
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
