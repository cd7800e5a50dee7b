"""Recurrent and dense layers: exact forward dynamics plus hand-derived
backward passes (backpropagation through time).

LSTM gate weights are stored stacked: one matrix product per time step
computes every gate pre-activation. Column blocks are ordered input, forget,
cell candidate, output. Inside the LSTM loops the gates are gate-major: a
step's four blocks are one (4, batch, hidden) array, so each gate is a
contiguous (batch, hidden) block and the elementwise numpy calls take their
contiguous fast path (the re-layout of Appleyard et al. 2016, Optimizing
Performance of Recurrent Neural Networks on GPUs, arXiv:1604.01946). One
step, lstm_step, advances a layer on preallocated buffers: one sigmoid over
all four blocks, then tanh over the candidate block, overwriting it. Both
LSTM loops run it. lstm_forward, the training forward, keeps a time-major
cache: a layer's gate activations in one (time, 4, batch, hidden) array (the
input projection for every step, overwritten step by step with that step's
activations) plus the (time, batch, hidden) cell states, 5*hidden floats per
sample-step; the backward recomputes the hidden states from them.
Model.scores keeps none: it runs the step time-major through every layer
over chunks of SCORE_CHUNK (40) sequences, so its memory is a few
(chunk, 4*hidden) buffers per layer, whatever the length or number of the
sequences.

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

# The paper's architectures: (hidden_sizes, dropout_prob) of each variant.
VARIANT_DEFAULTS = {1: ((64,), 0.0), 2: ((128, 64), 0.35)}

# Rows per Model.scores chunk; score_chunks sets the bounds, and
# harness.evaluate deals the same chunks to its workers. A multiple of 4:
# with OpenBLAS 0.3.31 (Haswell kernels), chunks of 4, 8, 16, 20, 44, 100
# rows or the whole batch gave the scores of chunks of 40 bit for bit
# (tests/test_layers.py::TestScores pins it at T = 64 and 200 rows), while
# chunks of 2, 3, 5, 6, 7, 10, 50 or 102 rows changed some of them (both
# models, T = 256, 5 to 201 rows; 8, 100 and the whole batch also held at
# T = 4097 with one BLAS thread and at T = 512 with two). 40 because it is
# faster: a step's numpy calls cost about the same at any row count, so 200
# recordings score about 1.2x faster in chunks of 40 than of 20, and model 1
# scored 200 rows at T = 4097 in 2.5-3.6 s in chunks of 40 against 3.8-4.4 s
# in one pass (2 vCPU Xeon, one BLAS thread).
SCORE_CHUNK = 40

# Time steps per block of lstm_backward's bulk precomputation. A block holds
# 7 (batch, hidden) arrays per step, so at T=4097 and batch 4 it adds 0.05
# hidden-floats per sample-step to the backward's peak. 16 to 32 steps were
# fastest at H=64 and H=128 (2 vCPU Xeon, one BLAS thread).
BACKWARD_CHUNK = 32


def score_chunks(n: int) -> list:
    """(lo, hi) row bounds of the chunks Model.scores steps n >= 2 rows
    through: SCORE_CHUNK rows each and the rest in the last, except that a
    1-row tail joins the previous chunk. Model.scores of any one chunk's rows
    is one chunk, so scoring the chunks apart gives the same bits."""
    starts = range(0, n - 1, SCORE_CHUNK)
    return list(zip(starts, [*starts[1:], n]))


def sigmoid(x, out=None) -> np.ndarray:
    """Logistic function 1/(1+e^-x), computed so large |x| never overflows.

    The numerator is 1 where x >= 0 and e^-|x| elsewhere: max(x >= 0, e^-|x|).
    With out, the result is written there and e^-|x| is the one temporary.
    """
    e = np.exp(np.copysign(x, -1.0))  # copysign(x, -1) is -|x|, bit for bit
    numerator = np.maximum(np.greater_equal(x, 0.0, out=out), e, out=out)
    e += 1.0
    return np.divide(numerator, e, out=out)


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

    @property
    def input_dim(self) -> int:
        return self.kernel.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.recurrent.shape[0]


@dataclass
class LstmLayerCache:
    """What backpropagation through time reads from one layer's forward pass.

    gates: (time, 4, batch, hidden) activations, time-major then gate-major
    in the i, f, c, o order of the weights' column blocks (sigmoid for i, f,
    o; tanh for the cell candidate), so gates[t, k] is one contiguous
    (batch, hidden) block. c: (time, batch, hidden) cell states. x: the
    input (batch, time, d). The initial states are zero. The hidden states
    are not kept: h = o*tanh(c) recomputes them bit for bit.
    """

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray


def step_scratch(params: LstmLayerParams, batch: int):
    """lstm_step's scratch for one layer at one batch size: the recurrent
    product (batch, 4*hidden), its (4, batch, hidden) gate-major view, the
    pre-activation (4, batch, hidden) and the bias broadcast to that shape."""
    hdim = params.hidden_dim
    z, bias = np.empty((batch, 4 * hdim)), np.empty((4, batch, hdim))
    bias[...] = params.bias.reshape(4, 1, hdim)
    return z, z.reshape(batch, 4, hdim).transpose(1, 0, 2), np.empty((4, batch, hdim)), bias


def lstm_step(proj, act, h_prev, c_prev, h, c, params: LstmLayerParams, scratch) -> None:
    """Advance one LSTM layer by one time step; allocates only sigmoid's
    temporary.

    proj: (4, batch, hidden) view of the step's input projection x_t @ kernel.
    act: contiguous (4, batch, hidden), overwritten with the gate
    activations; it may be proj. h_prev, c_prev: (batch, hidden) previous
    states. h, c: contiguous (batch, hidden), overwritten with the new
    states; they may be h_prev and c_prev. scratch: step_scratch(params,
    batch). The pre-activation is (proj + h_prev @ recurrent) + bias; one
    sigmoid covers all four blocks, then tanh overwrites the candidate. Each
    gate block is a contiguous (batch, hidden) array, so every elementwise
    call but the first add takes numpy's contiguous fast path.
    """
    z, z_gates, pre, bias = scratch
    np.matmul(h_prev, params.recurrent, out=z)
    np.add(proj, z_gates, out=pre)
    np.add(pre, bias, out=pre)
    sigmoid(pre, out=act)
    i, f, g, o = act
    np.tanh(pre[2], out=g)
    ig = pre[0]  # the pre-activation is spent; reuse it for i*g
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=ig)
    np.add(c, ig, out=c)
    np.tanh(c, out=h)
    np.multiply(o, h, out=h)


def lstm_forward(x, params: LstmLayerParams):
    """Run one LSTM layer over a batch of sequences from a zero state.

    x: (batch, time, input_dim). Gate dynamics per step: i,f,o =
    sigmoid(gates), g = tanh(candidate), c = f*c_prev + i*g, h = o*tanh(c),
    with h and c zero before the first step. Returns (h, cache): h is the
    (batch, time, hidden) hidden states, a view of a time-major array.
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

    # Input contribution for every step; the loop overwrites each step's
    # block with that step's gate activations.
    gates = np.empty((steps, 4, batch, hdim))
    if d == 1:
        # x_t * kernel is the product's only term: one broadcast multiply.
        np.multiply(x.transpose(1, 0, 2)[:, None], params.kernel.reshape(4, 1, hdim), out=gates)
    else:
        # One product over the rows in (batch, time) order, then one re-layout.
        proj = x.reshape(batch * steps, d) @ params.kernel
        gates[...] = proj.reshape(batch, steps, 4, hdim).transpose(1, 2, 0, 3)
        del proj  # 4*hidden floats per sample-step the loop does not need
    cs = np.empty((steps, batch, hdim))
    hs = np.empty((steps, batch, hdim))
    scratch = step_scratch(params, batch)
    h_prev = c_prev = np.zeros((batch, hdim))
    for act, h, c in zip(gates, hs, cs):
        lstm_step(act, act, h_prev, c_prev, h, c, params, scratch)
        h_prev, c_prev = h, c
    return hs.transpose(1, 0, 2), LstmLayerCache(x, gates, cs)


def lstm_backward(dh_out, cache: LstmLayerCache, params: LstmLayerParams):
    """Backpropagate through time for one LSTM layer.

    dh_out: (batch, time, hidden) upstream gradient on every timestep's
    hidden output (zeros where the output is unused). Blocks of
    BACKWARD_CHUNK steps, last first, take in bulk what a step reads from the
    forward: 1-i, 1-f, 1-g**2, 1-o, tanh(c), 1-tanh(c)**2 and dh_out, all
    time-major, and the hidden states o*tanh(c). Each step then forms its
    gate gradients in a contiguous (4, batch, hidden) block and copies it
    into dz, (batch, time, 4*hidden), so that the weight-gradient products
    see rows in (batch, time) order. Beside the cache and dh_out the backward
    holds dz, the shifted hidden states and dx: about 5*hidden + input_dim
    floats per sample-step at its peak, plus 7*hidden floats per sample and
    step of one block.

    Returns (dx, (dkernel, drecurrent, dbias)).
    """
    dh_out = np.asarray(dh_out, dtype=np.float64)
    steps, batch, hdim = cache.c.shape
    if dh_out.shape != (batch, steps, hdim):
        raise ShapeError(f"upstream gradient {dh_out.shape} != layer outputs {(batch, steps, hdim)}")
    gates, cs, recurrent_t = cache.gates, cache.c, params.recurrent.T

    dz = np.empty((batch, steps, 4 * hdim))
    dz_blocks = dz.reshape(batch, steps, 4, hdim)
    h_prev_all = np.empty((batch, steps, hdim))  # h_prev_all[:, t] is h[:, t-1]
    h_prev_all[:, 0] = 0.0
    n = min(BACKWARD_CHUNK, steps)
    one_minus = np.empty((n, 4, batch, hdim))  # 1-i, 1-f, 1-g**2, 1-o
    tanh_c, one_minus_tanh2, dh_chunk = (np.empty((n, batch, hdim)) for _ in range(3))
    step_dz = np.empty((4, batch, hdim))
    dz_i, dz_f, dz_c, dz_o = step_dz
    zero, dh = np.zeros((batch, hdim)), np.empty((batch, hdim))
    dh_next, dc = np.zeros((batch, hdim)), np.zeros((batch, hdim))
    for end in range(steps, 0, -n):
        start = max(end - n, 0)
        m = end - start
        chunk, om, tc, dtc, dhc = gates[start:end], one_minus[:m], tanh_c[:m], one_minus_tanh2[:m], dh_chunk[:m]
        np.subtract(1.0, chunk, out=om)
        np.square(chunk[:, 2], out=om[:, 2])
        np.subtract(1.0, om[:, 2], out=om[:, 2])
        np.tanh(cs[start:end], out=tc)
        np.square(tc, out=dtc)
        np.subtract(1.0, dtc, out=dtc)
        dhc[...] = dh_out[:, start:end].transpose(1, 0, 2)
        # h = o*tanh(c), the forward's hidden states bit for bit; step t's is step t+1's h_prev.
        m_h = min(end, steps - 1) - start
        np.multiply(chunk[:m_h, 3], tc[:m_h], out=h_prev_all[:, start + 1 : start + 1 + m_h].transpose(1, 0, 2))
        # Each product in the order of the batch-major form, so every bit is the same.
        for t in range(end - 1, start - 1, -1):
            k = t - start
            i, f, g, o = gates[t]
            c_prev = zero if t == 0 else cs[t - 1]
            np.add(dhc[k], dh_next, out=dh)
            np.multiply(dh, tc[k], out=dz_o)  # do
            np.multiply(dh, o, out=dh)
            np.multiply(dh, dtc[k], out=dh)
            np.add(dc, dh, out=dc)  # dc = dc_next + dh*o*(1 - tanh(c)**2)
            np.multiply(dc, g, out=dz_i)
            np.multiply(dz_i, i, out=dz_i)
            np.multiply(dc, c_prev, out=dz_f)
            np.multiply(dz_f, f, out=dz_f)
            np.multiply(dc, i, out=dz_c)
            np.multiply(dz_o, o, out=dz_o)
            np.multiply(step_dz, om[k], out=step_dz)  # times 1-i, 1-f, 1-g**2, 1-o
            np.multiply(dc, f, out=dc)  # dc_next
            dz_blocks[:, t] = step_dz.transpose(1, 0, 2)
            np.matmul(dz[:, t], recurrent_t, out=dh_next)

    flat_dz = dz.reshape(batch * steps, 4 * hdim)
    dkernel = cache.x.reshape(batch * steps, -1).T @ flat_dz
    drecurrent = h_prev_all.reshape(batch * steps, hdim).T @ flat_dz
    dbias = flat_dz.sum(axis=0)
    dx = (flat_dz @ params.kernel.T).reshape(cache.x.shape)
    return dx, (dkernel, drecurrent, dbias)


@dataclass
class DenseParams:
    """Single-unit read-out layer: weights (h,), scalar bias stored 0-d."""

    weights: np.ndarray
    bias: np.ndarray


def dropout_forward(values, p: float, rng):
    """Inverted dropout, a training-time operation: each entry is zeroed with
    probability p and survivors are scaled by 1/(1-p).

    Returns (values * mask, mask); the mask is kept for the backward pass.
    """
    mask = (rng.random(values.shape) >= p) / (1.0 - p)
    return values * mask, mask


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description, and the only check of one.

    variant 1 is the single-layer classifier (one LSTM, hidden 64, no
    dropout); variant 2 stacks two LSTM layers (128 then 64) with dropout
    0.35 after each. hidden_sizes may be overridden for reduced-size runs;
    None means the variant's default. dropout_prob is not an argument: it
    is always the variant's rate.

    Types are checked exactly, so a bool or a float never passes as an int:
    variant is 1 or 2; hidden_sizes is a list or tuple of `variant` positive
    ints, stored as a tuple; seq_len is a positive int. A ValueError names
    the bad field.
    """

    variant: int
    seq_len: int = BONN_SEQ_LEN
    hidden_sizes: tuple | None = None
    dropout_prob: float = field(init=False)

    def __post_init__(self):
        variant, hidden = self.variant, self.hidden_sizes
        if type(variant) is not int or variant not in VARIANT_DEFAULTS:
            raise ValueError(f"variant must be 1 or 2, got {variant!r}")
        if hidden is None:
            hidden = VARIANT_DEFAULTS[variant][0]
        elif type(hidden) not in (list, tuple) or not all(type(h) is int and h >= 1 for h in hidden):
            raise ValueError(f"hidden_sizes must be a list of positive integers, got {hidden!r}")
        elif len(hidden) != variant:
            raise ValueError(f"variant {variant} needs {variant} LSTM layer(s), got hidden_sizes {hidden!r}")
        if type(self.seq_len) is not int or self.seq_len < 1:
            raise ValueError(f"seq_len must be a positive integer, got {self.seq_len!r}")
        object.__setattr__(self, "hidden_sizes", tuple(hidden))
        object.__setattr__(self, "dropout_prob", VARIANT_DEFAULTS[variant][1])


def layout(config: ModelConfig):
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
    for name, shape in layout(config):
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
        for k in range(4):
            layer.recurrent[:, k * h : (k + 1) * h] = _orthogonal(rng, h)
        layer.bias[h : 2 * h] = 1.0
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

    def __getstate__(self):
        """A model pickles as (config, params), so an unpickled one is rebuilt with views of one buffer."""
        return self.config, self.params

    def __setstate__(self, state):
        config, params = state
        self.__init__(config)
        self.params[...] = params

    def blocks(self, vec) -> dict:
        """Map each block name, in storage order, to its reshaped view of vec."""
        views, end = {}, 0
        for name, shape in layout(self.config):
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
        mode only, and consumes the supplied rng stream; otherwise the rng is
        not needed and nothing is drawn from it.
        """
        x = self._as_batch(x)
        p = self.config.dropout_prob if train else 0.0
        if p > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        cache = ModelCache()
        last = len(self.lstm_layers) - 1
        feed = x
        out = None
        for idx, layer in enumerate(self.lstm_layers):
            out, lcache = lstm_forward(feed, layer)
            cache.lstm_caches.append(lcache)
            if idx == last:  # a copy, so that nothing holds the hidden states of every step
                out = out[:, -1].copy()
            out, mask = dropout_forward(out, p, rng) if p > 0.0 else (out, None)
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
                steps, batch, hdim = lcache.c.shape
                dh_out = np.zeros((batch, steps, hdim))
                dh_out[:, -1] = upstream
            else:
                dh_out = upstream
            upstream, grads = lstm_backward(dh_out, lcache, self.lstm_layers[idx])
            for part, grad in zip(("kernel", "recurrent", "bias"), grads):
                g[f"lstm{idx + 1}.{part}"][...] = grad
        return list(g.values())

    def scores(self, x) -> np.ndarray:
        """Eval-mode probabilities for a batch (dropout inactive), with no cache.

        Runs lstm_step over chunks of SCORE_CHUNK rows, time step by time
        step through every layer, so it keeps a few (rows, 4*hidden) and
        (rows, hidden) buffers per layer and no (rows, time, .) array. Under
        OpenBLAS it equals forward(x)[0] bitwise. numpy multiplies a single
        row by its matrix-vector path, which rounds differently from
        forward's whole-sequence product, so a 1-row input goes through
        forward (its cache is 5*hidden floats per step and layer) and a
        1-row tail joins the previous chunk.
        """
        x = self._as_batch(x)[:, :, 0]
        n = len(x)
        if n == 1:
            return self.forward(x)[0]
        probs = np.empty(n)
        for lo, hi in score_chunks(n):
            rows = hi - lo
            state = []
            for layer in self.lstm_layers:
                # Per layer: the input projection and its gate-major view, the
                # gate block, the hidden and cell states, the step's scratch.
                hdim = layer.hidden_dim
                proj = np.empty((rows, 4 * hdim))
                state.append((
                    layer, proj, proj.reshape(rows, 4, hdim).transpose(1, 0, 2), np.empty((4, rows, hdim)),
                    np.zeros((rows, hdim)), np.zeros((rows, hdim)), step_scratch(layer, rows),
                ))
            for t in range(x.shape[1]):
                feed = x[lo:hi, t : t + 1]
                for layer, proj, proj_gates, act, h, c, scratch in state:
                    # With one input feature, x_t * kernel is the product's only term;
                    # multiply forms it in about half matmul's time.
                    (np.multiply if layer.input_dim == 1 else np.matmul)(feed, layer.kernel, out=proj)
                    lstm_step(proj_gates, act, h, c, h, c, layer, scratch)
                    feed = h
            probs[lo:hi] = sigmoid(feed @ self.dense.weights + self.dense.bias)
        return probs
