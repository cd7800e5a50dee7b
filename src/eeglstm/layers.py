"""Recurrent and dense layers: exact forward dynamics plus hand-derived
backward passes (backpropagation through time).

LSTM gate weights are stored stacked: one matrix product per time step
computes every gate pre-activation. Column blocks are ordered input, forget,
cell candidate, output; ``gate_bias`` gives the per-gate view of a bias.
The forward cache holds a layer's gate activations in one (batch, time,
4*hidden) array in the same column order: the input projection for every
step, overwritten step by step with that step's activations.

Shapes follow the batched convention (batch, time, features). A Model takes
single-channel input, (batch, time), so its first layer sees one feature;
every layer starts from a zero state. A Model holds its parameters in one
float64 vector, `params`, and its gradients in another of the same layout,
`grad`; `Model.blocks` views either as named blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import BONN_SEQ_LEN
from .errors import ShapeError

GATE_NAMES = ("i", "f", "c", "o")

MODEL1_HIDDEN = (64,)
MODEL2_HIDDEN = (128, 64)
MODEL2_DROPOUT = 0.35


def sigmoid(x) -> np.ndarray:
    """Logistic function 1/(1+e^-x), computed so large |x| never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _gate_slice(gate: str, hidden: int) -> slice:
    idx = GATE_NAMES.index(gate)
    return slice(idx * hidden, (idx + 1) * hidden)


@dataclass
class LstmLayerParams:
    """Trainable weights of one LSTM layer.

    kernel: (input_dim, 4*hidden) input-to-gate weights
    recurrent: (hidden, 4*hidden) state-to-gate weights
    bias: (4*hidden,)
    """

    kernel: np.ndarray
    recurrent: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        k, r, b = self.kernel, self.recurrent, self.bias
        if k.ndim != 2 or r.ndim != 2 or b.ndim != 1:
            raise ShapeError(
                f"LSTM params must be (d,4h), (h,4h), (4h,), got {k.shape}, {r.shape}, {b.shape}"
            )
        if r.shape[1] != 4 * r.shape[0] or k.shape[1] != r.shape[1] or b.shape[0] != r.shape[1]:
            raise ShapeError(
                f"inconsistent LSTM param shapes: kernel {k.shape}, recurrent {r.shape}, bias {b.shape}"
            )

    @property
    def input_dim(self) -> int:
        return self.kernel.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.recurrent.shape[0]

    def gate_bias(self, gate: str) -> np.ndarray:
        """View of the (hidden,) bias of gate i/f/c/o."""
        return self.bias[_gate_slice(gate, self.hidden_dim)]


@dataclass
class LstmLayerCache:
    """What backpropagation through time reads from one layer's forward pass.

    gates: (batch, time, 4*hidden) activations in the stacked i, f, c, o
    column order of the weights (sigmoid for i, f, o; tanh for the cell
    candidate). c and h: (batch, time, hidden) cell and hidden states.
    x: the input (batch, time, d). The initial states are zero.
    """

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray


def lstm_forward(x, params: LstmLayerParams) -> LstmLayerCache:
    """Run one LSTM layer over a batch of sequences from a zero state.

    x: (batch, time, input_dim). Gate dynamics per step: i,f,o =
    sigmoid(gates), g = tanh(candidate), c = f*c_prev + i*g, h = o*tanh(c),
    with h and c zero before the first step.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"lstm_forward expects (batch, time, features), got {x.shape}")
    batch, steps, d = x.shape
    if steps < 1:
        raise ValueError("empty sequence")
    if d != params.input_dim:
        raise ShapeError(f"input feature dim {d} != layer input dim {params.input_dim}")
    hdim = params.hidden_dim
    sl_i, sl_f, sl_c, sl_o = (_gate_slice(g, hdim) for g in GATE_NAMES)
    sl_if = slice(0, 2 * hdim)

    # Input contribution for every step in one product; the loop overwrites
    # each step's slice with that step's gate activations.
    gates = (x.reshape(batch * steps, d) @ params.kernel).reshape(batch, steps, 4 * hdim)
    cs = np.empty((batch, steps, hdim))
    hs = np.empty((batch, steps, hdim))
    h_prev = c_prev = np.zeros((batch, hdim))
    for t in range(steps):
        act = gates[:, t]
        z = act + h_prev @ params.recurrent + params.bias
        act[:, sl_if] = sigmoid(z[:, sl_if])
        act[:, sl_c] = np.tanh(z[:, sl_c])
        act[:, sl_o] = sigmoid(z[:, sl_o])
        it, ft, gt, ot = act[:, sl_i], act[:, sl_f], act[:, sl_c], act[:, sl_o]
        ct = ft * c_prev + it * gt
        ht = ot * np.tanh(ct)
        cs[:, t], hs[:, t] = ct, ht
        h_prev, c_prev = ht, ct

    return LstmLayerCache(x, gates, cs, hs)


def lstm_backward(dh_out, cache: LstmLayerCache, params: LstmLayerParams):
    """Backpropagate through time for one LSTM layer.

    dh_out: (batch, time, hidden) upstream gradient on every timestep's
    hidden output (zeros where the output is unused).

    Returns (dx, (dkernel, drecurrent, dbias)).
    """
    dh_out = np.asarray(dh_out, dtype=np.float64)
    if dh_out.shape != cache.h.shape:
        raise ShapeError(f"upstream gradient {dh_out.shape} != cached outputs {cache.h.shape}")
    batch, steps, hdim = cache.h.shape
    sl_i, sl_f, sl_c, sl_o = (_gate_slice(g, hdim) for g in GATE_NAMES)

    tanh_c = np.tanh(cache.c)
    zero = np.zeros((batch, hdim))
    dz = np.zeros((batch, steps, 4 * hdim))
    dh_next = np.zeros((batch, hdim))
    dc_next = np.zeros((batch, hdim))
    for t in reversed(range(steps)):
        act = cache.gates[:, t]
        it, ft, gt, ot = act[:, sl_i], act[:, sl_f], act[:, sl_c], act[:, sl_o]
        tct = tanh_c[:, t]
        c_prev = zero if t == 0 else cache.c[:, t - 1]
        dh = dh_out[:, t] + dh_next
        do = dh * tct
        dc = dc_next + dh * ot * (1.0 - tct**2)
        dz[:, t, sl_i] = dc * gt * it * (1.0 - it)
        dz[:, t, sl_f] = dc * c_prev * ft * (1.0 - ft)
        dz[:, t, sl_c] = dc * it * (1.0 - gt**2)
        dz[:, t, sl_o] = do * ot * (1.0 - ot)
        dc_next = dc * ft
        dh_next = dz[:, t] @ params.recurrent.T

    flat_dz = dz.reshape(batch * steps, 4 * hdim)
    dkernel = cache.x.reshape(batch * steps, -1).T @ flat_dz
    h_prev_all = np.concatenate([zero[:, None, :], cache.h[:, :-1]], axis=1)
    drecurrent = h_prev_all.reshape(batch * steps, hdim).T @ flat_dz
    dbias = flat_dz.sum(axis=0)
    dx = (flat_dz @ params.kernel.T).reshape(cache.x.shape)
    return dx, (dkernel, drecurrent, dbias)


@dataclass
class DenseParams:
    """Single-unit read-out layer: weights (h,), scalar bias stored 0-d."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 1 or self.bias.ndim != 0:
            raise ShapeError(
                f"dense params must be (h,) weights and a scalar bias, got {self.weights.shape}, {self.bias.shape}"
            )


def dropout_forward(values, p: float, rng=None, train: bool = False):
    """Inverted dropout.

    Eval mode (train=False) is the identity. In train mode each entry is
    zeroed with probability p and survivors are scaled by 1/(1-p); the mask
    is returned for the backward pass (None when no masking happened).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    values = np.asarray(values, dtype=np.float64)
    if not train or p == 0.0:
        return values, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    mask = (rng.random(values.shape) >= p) / (1.0 - p)
    return values * mask, mask


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description.

    variant 1 is the single-layer classifier (one LSTM, hidden 64, no
    dropout); variant 2 stacks two LSTM layers (128 then 64) with dropout
    0.35 after each. hidden_sizes/dropout_prob may be overridden for
    reduced-size runs; defaults follow the variant.
    """

    variant: int
    seq_len: int = BONN_SEQ_LEN
    hidden_sizes: tuple = ()
    dropout_prob: float | None = None

    def __post_init__(self):
        if self.variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, got {self.variant}")
        if not self.hidden_sizes:
            default = MODEL1_HIDDEN if self.variant == 1 else MODEL2_HIDDEN
            object.__setattr__(self, "hidden_sizes", default)
        else:
            object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.dropout_prob is None:
            object.__setattr__(self, "dropout_prob", 0.0 if self.variant == 1 else MODEL2_DROPOUT)
        if len(self.hidden_sizes) != self.variant:
            raise ValueError(
                f"variant {self.variant} needs {self.variant} LSTM layer(s), got {self.hidden_sizes}"
            )
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be positive, got {self.hidden_sizes}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")


def _layout(config: ModelConfig):
    """(name, shape) of every parameter block, in storage order."""
    table, d = [], 1
    for n, h in enumerate(config.hidden_sizes, start=1):
        table += [(f"lstm{n}.kernel", (d, 4 * h)), (f"lstm{n}.recurrent", (h, 4 * h)), (f"lstm{n}.bias", (4 * h,))]
        d = h
    return table + [("dense.weights", (d,)), ("dense.bias", ())]


def param_count(config: ModelConfig):
    """Total trainable parameter count with a per-layer breakdown.

    LSTM layers contribute 4*h*(h + d + 1), the read-out h + 1.
    Returns (total, [(layer_name, count), ...]).
    """
    layers = {}
    for name, shape in _layout(config):
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0) + math.prod(shape)
    return sum(layers.values()), list(layers.items())


def _glorot_uniform(rng, shape):
    fan_in, fan_out = shape[0], shape[1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    # Sign-correct columns so the factorization (and the draw) is unique.
    return q * np.sign(np.diag(r))


def init_params(config: ModelConfig, seed: int) -> "Model":
    """Deterministically initialize a model.

    Input kernels are Glorot-uniform over fan_in + fan_out of the stacked
    (d, 4h) kernel; each gate's recurrent block is an independent orthogonal
    matrix (sign-corrected QR of a seeded Gaussian); biases are zero except
    the forget-gate block, which is one.
    """
    rng = np.random.default_rng(int(seed))
    model = Model(config)
    for layer in model.lstm_layers:
        h = layer.hidden_dim
        layer.kernel[...] = _glorot_uniform(rng, layer.kernel.shape)
        for gate in GATE_NAMES:
            layer.recurrent[:, _gate_slice(gate, h)] = _orthogonal(rng, h)
        layer.gate_bias("f")[...] = 1.0
    model.dense.weights[...] = _glorot_uniform(rng, (model.dense.weights.size, 1))[:, 0]
    return model


@dataclass
class ModelCache:
    """Everything the model backward pass needs from one forward pass."""

    lstm_caches: list = field(default_factory=list)
    dropout_masks: list = field(default_factory=list)
    pre_dense: np.ndarray | None = None
    probs: np.ndarray | None = None


class Model:
    """One or two LSTM layers feeding a single sigmoid read-out unit.

    The first layer consumes the raw sequence; in the stacked variant its
    full hidden sequence (after dropout) feeds the second layer. The
    read-out always sees the final layer's last hidden state.

    `params` is the only parameter storage: one float64 vector, zero at
    construction, of which every block in param_arrays() is a view. `grad`
    has the same layout and holds the gradients of the last backward call.
    blocks(vec) maps each block name to a view of a vector in this layout.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = np.zeros(param_count(config)[0])
        self.grad = np.zeros_like(self.params)
        p = self.blocks(self.params)
        self.lstm_layers = [
            LstmLayerParams(p[f"lstm{n}.kernel"], p[f"lstm{n}.recurrent"], p[f"lstm{n}.bias"])
            for n in range(1, len(config.hidden_sizes) + 1)
        ]
        self.dense = DenseParams(p["dense.weights"], p["dense.bias"])

    def blocks(self, vec) -> dict:
        """Map each block name, in storage order, to its reshaped view of vec."""
        if vec.shape != self.params.shape:
            raise ShapeError(f"vector shape {vec.shape} != params shape {self.params.shape}")
        views, end = {}, 0
        for name, shape in _layout(self.config):
            start, end = end, end + math.prod(shape)
            views[name] = vec[start:end].reshape(shape)
        return views

    def param_arrays(self):
        return list(self.blocks(self.params).values())

    def _as_batch(self, x) -> np.ndarray:
        """(batch, time) single-channel input as the first layer's (batch, time, 1)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"input must be (batch, time), got {x.shape}")
        if x.shape[1] != self.config.seq_len:
            raise ShapeError(f"sequence length {x.shape[1]} != configured {self.config.seq_len}")
        return x[:, :, None]

    def forward(self, x, train: bool = False, rng=None):
        """Forward pass over a batch. Returns (probs, cache).

        Dropout (if configured) is applied after every LSTM layer in train
        mode and consumes the supplied rng stream.
        """
        x = self._as_batch(x)
        if train and self.config.dropout_prob > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        cache = ModelCache()
        last = len(self.lstm_layers) - 1
        feed = x
        out = None
        for idx, layer in enumerate(self.lstm_layers):
            lcache = lstm_forward(feed, layer)
            cache.lstm_caches.append(lcache)
            out = lcache.h[:, -1] if idx == last else lcache.h
            out, mask = dropout_forward(out, self.config.dropout_prob, rng, train)
            cache.dropout_masks.append(mask)
            feed = out
        z = out @ self.dense.weights + self.dense.bias
        probs = sigmoid(z)
        cache.pre_dense = out
        cache.probs = probs
        return probs, cache

    def backward(self, cache: ModelCache, dloss_dp):
        """Gradients of a scalar loss for every parameter.

        dloss_dp: (batch,) upstream derivative of the loss with respect to
        each sample's predicted probability (for a batch-mean loss, the
        per-sample derivatives divided by the batch size). Overwrites `grad`
        and returns its block views in param_arrays() order.
        """
        if not isinstance(cache, ModelCache) or cache.probs is None:
            raise RuntimeError("backward needs the cache produced by forward")
        dloss_dp = np.asarray(dloss_dp, dtype=np.float64)
        if dloss_dp.shape != cache.probs.shape:
            raise ShapeError(f"upstream gradient {dloss_dp.shape} != probs {cache.probs.shape}")
        g = self.blocks(self.grad)
        dz = dloss_dp * cache.probs * (1.0 - cache.probs)
        g["dense.weights"][...] = cache.pre_dense.T @ dz
        g["dense.bias"][...] = dz.sum()
        upstream = np.outer(dz, self.dense.weights)

        last = len(self.lstm_layers) - 1
        for idx in range(last, -1, -1):
            mask = cache.dropout_masks[idx]
            if mask is not None:
                upstream = upstream * mask
            lcache = cache.lstm_caches[idx]
            if idx == last:
                dh_out = np.zeros_like(lcache.h)
                dh_out[:, -1] = upstream
            else:
                dh_out = upstream
            upstream, grads = lstm_backward(dh_out, lcache, self.lstm_layers[idx])
            for part, grad in zip(("kernel", "recurrent", "bias"), grads):
                g[f"lstm{idx + 1}.{part}"][...] = grad
        return list(g.values())

    def scores(self, x) -> np.ndarray:
        """Eval-mode probabilities for a batch (dropout inactive)."""
        probs, _ = self.forward(x, train=False)
        return probs
