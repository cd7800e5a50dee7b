import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import OPENBLAS
from eeglstm import layers
from eeglstm.errors import ShapeError
from eeglstm.layers import (
    BACKWARD_CHUNK,
    SCORE_CHUNK,
    LstmLayerParams,
    ModelConfig,
    dropout_forward,
    init_params,
    lstm_forward,
    param_count,
    sigmoid,
)


def scalar_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def scalar_params(b_i=0.0, b_f=0.0, b_c=0.0, b_o=0.0):
    """d=h=1 layer with all weights zero and the given gate biases."""
    return LstmLayerParams(
        kernel=np.zeros((1, 4)),
        recurrent=np.zeros((1, 4)),
        bias=np.array([b_i, b_f, b_c, b_o]),
    )


def scalar_cell_oracle(x, h_prev, c_prev, w, u, b):
    """Closed-form single LSTM step for d=h=1; w/u/b are per-gate dicts."""
    gate = lambda g: scalar_sigmoid(w[g] * x + u[g] * h_prev + b[g])
    i, f, o = gate("i"), gate("f"), gate("o")
    cand = math.tanh(w["c"] * x + u["c"] * h_prev + b["c"])
    c = f * c_prev + i * cand
    h = o * math.tanh(c)
    return h, c


def batch_major(x, params):
    """lstm_forward's hidden states, cell states and gate activations, each
    read as (batch, time, .); the gates in i, f, c, o column order."""
    h, cache = lstm_forward(x, params)
    steps, _, batch, hdim = cache.gates.shape
    return h, cache.c.transpose(1, 0, 2), cache.gates.transpose(2, 0, 1, 3).reshape(batch, steps, 4 * hdim)


def run_scalar(xs, params):
    """lstm_forward on one d=1 sequence; returns (1, T, .)-shaped h, c and gates."""
    return batch_major(np.asarray(xs, dtype=np.float64).reshape(1, -1, 1), params)


def naive_lstm(x, layer):
    """Reference LSTM layer written from the gate equations.

    Independent of lstm_forward: per-gate weight slices, one sample and one
    step at a time from a zero state, sigmoid as 1/(1+exp(-z)). x is
    (batch, time, d); returns the hidden and cell states, each
    (batch, time, hidden).
    """
    batch, steps, _ = x.shape
    hdim = layer.recurrent.shape[0]
    cols = {g: slice(k * hdim, (k + 1) * hdim) for k, g in enumerate("ifco")}
    w = {g: layer.kernel[:, cols[g]] for g in "ifco"}
    u = {g: layer.recurrent[:, cols[g]] for g in "ifco"}
    b = {g: layer.bias[cols[g]] for g in "ifco"}
    logistic = lambda z: 1.0 / (1.0 + np.exp(-z))
    hs = np.empty((batch, steps, hdim))
    cs = np.empty((batch, steps, hdim))
    for n in range(batch):
        h, c = np.zeros(hdim), np.zeros(hdim)
        for t in range(steps):
            pre = {g: x[n, t] @ w[g] + h @ u[g] + b[g] for g in "ifco"}
            i, f, o = logistic(pre["i"]), logistic(pre["f"]), logistic(pre["o"])
            c = f * c + i * np.tanh(pre["c"])
            h = o * np.tanh(c)
            hs[n, t], cs[n, t] = h, c
    return hs, cs


def naive_scores(model, x):
    """Eval-mode probabilities of a Model, through naive_lstm and the read-out."""
    feed = np.asarray(x, dtype=np.float64)[:, :, None]
    for layer in model.lstm_layers:
        feed, _ = naive_lstm(feed, layer)
    z = feed[:, -1] @ model.dense.weights + model.dense.bias
    return 1.0 / (1.0 + np.exp(-z))


class TestActivations:
    def test_sigmoid_values(self):
        assert float(sigmoid(0.0)) == 0.5
        # independent evaluation of 1/(1+e^-1)
        assert float(sigmoid(1.0)) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=0)
        assert float(sigmoid(1.0)) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0  # float64 saturation

    def test_sigmoid_equals_the_where_form_bitwise(self):
        # The form sigmoid replaced, kept here as the reference.
        def where_sigmoid(x):
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)

        tiny = np.finfo(np.float64).tiny
        edges = np.array([0.0, 5e-324, tiny, 1e-300, 1.0, 36.0, 37.0, 709.0, 745.0, 746.0, 1e4, np.inf, np.nan])
        random = np.random.default_rng(0).standard_normal(10**6) * 20.0
        for x in (np.concatenate([edges, -edges]), random, random.reshape(1000, 1000)[:, ::3]):
            want = where_sigmoid(x).tobytes()
            assert sigmoid(x).tobytes() == want
            out = np.empty(x.shape)
            assert sigmoid(x, out=out) is out and out.tobytes() == want

    def test_tanh_values(self):
        assert float(np.tanh(0.0)) == 0.0
        assert float(np.tanh(1.0)) == pytest.approx(math.tanh(1.0), abs=0)

    @given(arrays(np.float64, st.integers(1, 20), elements=st.floats(-30.0, 30.0)))
    def test_sigmoid_strictly_in_unit_interval(self, x):
        # float64 saturates outside |x| ~ 36; within it the bound is strict
        out = sigmoid(x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @given(arrays(np.float64, st.integers(1, 20), elements=st.floats(-18.0, 18.0)))
    def test_tanh_strictly_in_open_interval(self, x):
        out = np.tanh(x)
        assert np.all(out > -1.0) and np.all(out < 1.0)


class TestLstmCell:
    def test_all_zero_params_zero_state(self):
        h, c, gates = run_scalar([3.7], scalar_params())
        assert h[0, 0, 0] == 0.0 and c[0, 0, 0] == 0.0
        # gates sit at sigmoid(0) = 0.5, candidate at tanh(0) = 0
        gate_i, gate_f, gate_c, gate_o = gates[0, 0]
        assert gate_i == 0.5
        assert gate_f == 0.5
        assert gate_o == 0.5
        assert gate_c == 0.0

    def test_candidate_bias_case(self):
        # weights zero, b_c = 1 so the candidate is tanh(1), zero prev state
        hs, cs, _ = run_scalar([0.3], scalar_params(b_c=1.0))
        c, h = cs[0, 0, 0], hs[0, 0, 0]
        c_expect = 0.5 * math.tanh(1.0)
        h_expect = 0.5 * math.tanh(c_expect)
        assert c == pytest.approx(c_expect, abs=1e-15)
        assert h == pytest.approx(h_expect, abs=1e-15)
        assert c == pytest.approx(0.380797, abs=1e-6)
        assert h == pytest.approx(0.181700, abs=1e-6)

    def test_forget_bias_carries_cell_state(self):
        # step 1 writes the cell through the candidate (w_c = 1, x = 1); step 2
        # (x = 0, candidate tanh(0) = 0) only carries it, scaled by sigmoid(b_f)
        params = scalar_params(b_f=1.0)
        params.kernel[0, 2] = 1.0
        hs, cs, _ = run_scalar([1.0, 0.0], params)
        c1 = 0.5 * math.tanh(1.0)
        c, h = cs[0, 1, 0], hs[0, 1, 0]
        c_expect = scalar_sigmoid(1.0) * c1
        h_expect = 0.5 * math.tanh(c_expect)
        assert cs[0, 0, 0] == pytest.approx(c1, abs=1e-15)
        assert c == pytest.approx(c_expect, abs=1e-15)
        assert h == pytest.approx(h_expect, abs=1e-15)
        assert c == pytest.approx(0.278385, abs=1e-6)
        assert h == pytest.approx(0.135705, abs=1e-6)

    def test_matches_closed_form_with_random_scalars(self):
        rng = np.random.default_rng(5)
        w, u, b = ({g: rng.normal() for g in "ifco"} for _ in range(3))
        params = LstmLayerParams(
            kernel=np.array([[w["i"], w["f"], w["c"], w["o"]]]),
            recurrent=np.array([[u["i"], u["f"], u["c"], u["o"]]]),
            bias=np.array([b["i"], b["f"], b["c"], b["o"]]),
        )
        # the second step starts from the non-zero state the first one left
        h, c = 0.0, 0.0
        hs, cs, _ = run_scalar([-1.3, 0.7], params)
        for t, x in enumerate((-1.3, 0.7)):
            h, c = scalar_cell_oracle(x, h, c, w, u, b)
            assert hs[0, t, 0] == pytest.approx(h, abs=1e-14)
            assert cs[0, t, 0] == pytest.approx(c, abs=1e-14)
        assert h != 0.0 and c != 0.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            lstm_forward(np.zeros((1, 1, 2)), scalar_params())  # input dim 2 != 1
        with pytest.raises(ShapeError):
            lstm_forward(np.zeros((1, 1)), scalar_params())  # no feature axis


class TestLstmSequence:
    def test_all_zero_params_zero_output(self):
        params = LstmLayerParams(np.zeros((1, 12)), np.zeros((3, 12)), np.zeros(12))
        h, _ = lstm_forward(np.ones((1, 5, 1)), params)
        assert h.shape == (1, 5, 3)
        assert np.all(h == 0.0)

    def test_two_step_unroll_matches_scalar_oracle(self):
        hs, cs, _ = run_scalar([1.0, 1.0], scalar_params(b_c=1.0))
        b = {"i": 0.0, "f": 0.0, "c": 1.0, "o": 0.0}
        zero = {g: 0.0 for g in "ifco"}
        h1, c1 = scalar_cell_oracle(1.0, 0.0, 0.0, zero, zero, b)
        h2, c2 = scalar_cell_oracle(1.0, h1, c1, zero, zero, b)
        assert hs[0, 0, 0] == pytest.approx(h1, abs=1e-15)
        assert hs[0, 1, 0] == pytest.approx(h2, abs=1e-15)
        assert cs[0, 1, 0] == pytest.approx(c2, abs=1e-15)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            lstm_forward(np.zeros((1, 0, 1)), scalar_params())

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_hidden_state_bounded(self, steps, seed):
        # gates in (0,1), tanh in (-1,1) => |h| < 1 for bounded params/inputs
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 5))
        params = LstmLayerParams(
            rng.uniform(-3, 3, (1, 4 * h)), rng.uniform(-3, 3, (h, 4 * h)), rng.uniform(-3, 3, 4 * h)
        )
        hs, _, gates = batch_major(rng.uniform(-5, 5, (2, steps, 1)), params)
        assert np.all(np.abs(hs) < 1.0)
        gate_i, gate_f, _, gate_o = np.split(gates, 4, axis=-1)
        assert np.all(gate_i > 0.0) and np.all(gate_i < 1.0)
        assert np.all(gate_f > 0.0) and np.all(gate_f < 1.0)
        assert np.all(gate_o > 0.0) and np.all(gate_o < 1.0)


class TestNaiveReference:
    @pytest.mark.parametrize("d,hdim", [(1, 1), (1, 4), (3, 5)])
    def test_lstm_forward_matches_every_step(self, d, hdim):
        rng = np.random.default_rng(10 * d + hdim)
        params = LstmLayerParams(
            rng.uniform(-1, 1, (d, 4 * hdim)), rng.uniform(-1, 1, (hdim, 4 * hdim)), rng.uniform(-1, 1, 4 * hdim)
        )
        x = rng.standard_normal((3, 7, d))
        h, c, _ = batch_major(x, params)
        h_ref, c_ref = naive_lstm(x, params)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 4, 20])
    @pytest.mark.parametrize("hdim", [1, 3, 64])
    @pytest.mark.parametrize("d", [1, 3])
    def test_lstm_forward_equals_per_block_activations_bitwise(self, d, hdim, batch):
        # lstm_forward takes one sigmoid over all four blocks; this is the same
        # loop with sigmoid over i|f, tanh over c and sigmoid over o.
        rng = np.random.default_rng(1000 * d + 10 * hdim + batch)
        params = LstmLayerParams(
            rng.uniform(-1, 1, (d, 4 * hdim)), rng.uniform(-1, 1, (hdim, 4 * hdim)), rng.uniform(-1, 1, 4 * hdim)
        )
        x = 3 * rng.standard_normal((batch, 6, d))
        gates = (x.reshape(-1, d) @ params.kernel).reshape(batch, 6, 4 * hdim)
        cs, hs = np.empty((batch, 6, hdim)), np.empty((batch, 6, hdim))
        h_prev = c_prev = np.zeros((batch, hdim))
        for t in range(6):
            act = gates[:, t]
            z = act + h_prev @ params.recurrent + params.bias
            act[:, : 2 * hdim] = sigmoid(z[:, : 2 * hdim])
            act[:, 2 * hdim : 3 * hdim] = np.tanh(z[:, 2 * hdim : 3 * hdim])
            act[:, 3 * hdim :] = sigmoid(z[:, 3 * hdim :])
            it, ft, gt, ot = (act[:, k * hdim : (k + 1) * hdim] for k in range(4))
            c_prev = cs[:, t] = ft * c_prev + it * gt
            h_prev = hs[:, t] = ot * np.tanh(c_prev)
        got_h, got_c, got_gates = batch_major(x, params)
        for got, want in ((got_gates, gates), (got_c, cs), (got_h, hs)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden", [(6,), (6, 4)])
    def test_model_scores_match(self, hidden):
        model = init_params(ModelConfig(variant=len(hidden), seq_len=9, hidden_sizes=hidden), 7)
        x = np.random.default_rng(8).standard_normal((4, 9))
        np.testing.assert_allclose(model.scores(x), naive_scores(model, x), rtol=0, atol=1e-12)


def small_model(seed=0):
    return init_params(ModelConfig(variant=1, seq_len=8, hidden_sizes=(8,)), seed)


class TestDense:
    def test_zero_params_give_half(self):
        model = small_model()
        model.dense.weights[...] = 0.0
        model.dense.bias[...] = 0.0
        x = np.random.default_rng(0).standard_normal((3, 8))
        assert np.all(model.scores(x) == 0.5)

    def test_unit_case(self):
        # zero read-out weights and unit bias: every probability is sigmoid(1)
        model = small_model()
        model.dense.weights[...] = 0.0
        model.dense.bias[...] = 1.0
        p = model.scores(np.ones((2, 8)))
        assert p == pytest.approx(scalar_sigmoid(1.0), abs=1e-15)
        assert p == pytest.approx(0.731059, abs=1e-6)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        model = small_model()
        for _ in range(50):
            model.dense.weights[...] = rng.uniform(-2, 2, 8)
            model.dense.bias[...] = rng.normal()
            p = model.scores(rng.uniform(-1, 1, (2, 8)))
            assert np.all((p > 0.0) & (p < 1.0))


class TestDropout:
    # Model.forward alone decides whether dropout runs: in eval mode, or in
    # train mode at rate 0, it draws nothing from the rng, keeps no mask and
    # gives the eval scores bit for bit.
    @staticmethod
    def assert_no_dropout(model, train):
        x = np.random.default_rng(0).standard_normal((3, 6))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        probs, cache = model.forward(x, train=train, rng=rng)
        assert rng.bit_generator.state == state
        assert cache.dropout_masks == [None] * len(model.config.hidden_sizes)
        assert probs.tobytes() == model.scores(x).tobytes()

    def test_eval_mode_is_identity(self):
        model = init_params(ModelConfig(variant=2, seq_len=6, hidden_sizes=(4, 3)), 0)
        assert model.config.dropout_prob == 0.35
        self.assert_no_dropout(model, train=False)

    def test_p_zero_train_is_identity(self):
        config = ModelConfig(variant=1, seq_len=6, hidden_sizes=(4,))
        assert config.dropout_prob == 0.0
        self.assert_no_dropout(init_params(config, 0), train=True)

    def test_monte_carlo_expectation(self):
        # inverted dropout preserves the mean: one long constant vector
        out, _ = dropout_forward(np.ones(100_000), 0.35, np.random.default_rng(42))
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_mask_is_deterministic_given_seed(self):
        v = np.ones(64)
        out1, m1 = dropout_forward(v, 0.35, np.random.default_rng(7))
        out2, m2 = dropout_forward(v, 0.35, np.random.default_rng(7))
        assert out1.tobytes() == out2.tobytes()
        assert m1.tobytes() == m2.tobytes()

    def test_mask_values_are_zero_or_scaled(self):
        _, mask = dropout_forward(np.ones(1000), 0.35, np.random.default_rng(1))
        assert set(np.unique(mask)) == {0.0, 1.0 / 0.65}


class TestParamCount:
    def test_model1_matches_architecture_table(self):
        total, layers = param_count(ModelConfig(variant=1))
        assert layers == [("lstm1", 16896), ("dense", 65)]
        assert total == 16961

    def test_model2_matches_architecture_table(self):
        total, layers = param_count(ModelConfig(variant=2))
        assert layers == [("lstm1", 66560), ("lstm2", 49408), ("dense", 65)]
        assert total == 116033

    def test_smallest_lstm(self):
        total, layers = param_count(ModelConfig(variant=1, hidden_sizes=(1,)))
        assert layers[0] == ("lstm1", 12)  # 4*1*(1+1+1)

    def test_counts_match_instantiated_arrays(self):
        for variant in (1, 2):
            config = ModelConfig(variant=variant, seq_len=16)
            model = init_params(config, 0)
            assert sum(a.size for a in model.param_arrays()) == param_count(config)[0]


class TestModelConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"variant": True}, "variant"),
            ({"variant": 1, "hidden_sizes": (6.0,)}, "hidden_sizes"),
            ({"variant": 1, "hidden_sizes": ()}, "hidden_sizes"),
        ],
    )
    def test_rejects_malformed_fields(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ModelConfig(**kwargs)

    def test_none_gives_the_variant_defaults(self):
        one, two = ModelConfig(variant=1), ModelConfig(variant=2)
        assert (one.hidden_sizes, one.dropout_prob) == ((64,), 0.0)
        assert (two.hidden_sizes, two.dropout_prob) == ((128, 64), 0.35)

    def test_list_is_stored_as_tuple(self):
        config = ModelConfig(variant=2, hidden_sizes=[6, 4])
        assert type(config.hidden_sizes) is tuple and config.hidden_sizes == (6, 4)


class TestInit:
    def test_same_seed_bit_identical(self):
        config = ModelConfig(variant=2, seq_len=32, hidden_sizes=(6, 4))
        a = init_params(config, 123).params
        b = init_params(config, 123).params
        assert a.tobytes() == b.tobytes()
        c = init_params(config, 124).params
        assert a.tobytes() != c.tobytes()

    def test_recurrent_gate_blocks_orthogonal(self):
        model = init_params(ModelConfig(variant=1, seq_len=8, hidden_sizes=(16,)), 9)
        layer = model.lstm_layers[0]
        for k in range(4):
            u = layer.recurrent[:, 16 * k : 16 * (k + 1)]
            assert np.allclose(u.T @ u, np.eye(16), atol=1e-10)

    def test_forget_bias_ones_other_biases_zero(self):
        model = init_params(ModelConfig(variant=2, seq_len=8, hidden_sizes=(6, 4)), 3)
        for layer in model.lstm_layers:
            b_i, b_f, b_c, b_o = np.split(layer.bias, 4)
            assert np.all(b_f == 1.0)
            for b in (b_i, b_c, b_o):
                assert np.all(b == 0.0)
        assert model.dense.bias == 0.0

    def test_glorot_bounds_on_kernel(self):
        h = 64
        model = init_params(ModelConfig(variant=1, seq_len=8, hidden_sizes=(h,)), 11)
        limit = math.sqrt(6.0 / (1 + 4 * h))
        kernel = model.lstm_layers[0].kernel
        assert np.all(np.abs(kernel) < limit)
        d_limit = math.sqrt(6.0 / (h + 1))
        assert np.all(np.abs(model.dense.weights) < d_limit)


class TestModel:
    def test_forward_shapes_and_range(self):
        config = ModelConfig(variant=2, seq_len=12, hidden_sizes=(6, 4))
        model = init_params(config, 0)
        x = np.random.default_rng(0).standard_normal((5, 12))
        probs, cache = model.forward(x)
        assert probs.shape == (5,)
        assert np.all((probs > 0) & (probs < 1))
        assert cache.pre_dense.shape == (5, 4)

    def test_seq_len_mismatch_raises(self):
        model = init_params(ModelConfig(variant=1, seq_len=12, hidden_sizes=(4,)), 0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 11)))
        with pytest.raises(ShapeError):  # input is single-channel (batch, time)
            model.forward(np.zeros((2, 12, 1)))

    def test_zero_upstream_gradient_gives_zero_grads(self):
        model = init_params(ModelConfig(variant=1, seq_len=6, hidden_sizes=(4,)), 0)
        probs, cache = model.forward(np.ones((3, 6)))
        grads = model.backward(cache, np.zeros(3))
        assert all(np.all(g == 0.0) for g in grads)

    def test_dead_path_gradient_is_exactly_zero(self):
        # all-zero input: the input kernel never sees a signal, its gradient
        # is structurally zero while recurrent/bias paths stay live
        model = init_params(ModelConfig(variant=1, seq_len=6, hidden_sizes=(4,)), 1)
        probs, cache = model.forward(np.zeros((2, 6)))
        model.backward(cache, np.ones(2))
        grads = model.blocks(model.grad)
        assert np.all(grads["lstm1.kernel"] == 0.0)
        assert np.any(grads["lstm1.bias"] != 0.0)

    def test_backward_without_cache_is_state_error(self):
        model = init_params(ModelConfig(variant=1, seq_len=6, hidden_sizes=(4,)), 0)
        with pytest.raises(RuntimeError):
            model.backward(None, np.zeros(2))

    def test_train_mode_dropout_needs_rng(self):
        model = init_params(ModelConfig(variant=2, seq_len=6, hidden_sizes=(4, 3)), 0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 6)), train=True)

    def test_train_forward_deterministic_given_seed(self):
        model = init_params(ModelConfig(variant=2, seq_len=10, hidden_sizes=(6, 4)), 2)
        x = np.random.default_rng(3).standard_normal((4, 10))
        p1, _ = model.forward(x, train=True, rng=np.random.default_rng(99))
        p2, _ = model.forward(x, train=True, rng=np.random.default_rng(99))
        assert p1.tobytes() == p2.tobytes()

    def test_param_blocks_are_views_of_params(self):
        x = np.random.default_rng(1).standard_normal((3, 8))
        for hidden in ((5,), (5, 3)):
            model = init_params(ModelConfig(variant=len(hidden), seq_len=8, hidden_sizes=hidden), 4)
            blocks = model.param_arrays()
            assert all(np.shares_memory(block, model.params) for block in blocks)
            assert np.concatenate([b.ravel() for b in blocks]).tobytes() == model.params.tobytes()
            # backward writes model.grad and returns its blocks in param_arrays() order and shapes
            probs, cache = model.forward(x)
            grads = model.backward(cache, probs - 0.5)
            assert [g.shape for g in grads] == [b.shape for b in blocks]
            assert all(np.shares_memory(g, model.grad) for g in grads)
            assert np.concatenate([g.ravel() for g in grads]).tobytes() == model.grad.tobytes()
            assert np.any(model.grad != 0.0)
            first = model.grad.copy()
            model.backward(cache, probs - 0.5)
            assert model.grad.tobytes() == first.tobytes()  # overwritten, not accumulated
            before = model.scores(x)
            blocks[0][...] += 0.5  # a write through a block reaches params and the scores
            assert np.array_equal(model.params[: blocks[0].size], blocks[0].ravel())
            assert not np.array_equal(model.scores(x), before)
            model.params[-1] = 2.0  # and a write to params reaches the blocks
            assert model.dense.bias == 2.0

    @pytest.mark.parametrize("variant", [1, 2])
    def test_an_unpickled_model_keeps_one_buffer(self, variant):
        # a scoring worker gets its model as a pickle of its bound method model.scores
        model = init_params(ModelConfig(variant=variant, seq_len=16), variant)
        data = pickle.dumps(model.scores, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(data) < model.params.nbytes + 1024  # params once; no grad, no block copies
        copy = pickle.loads(data).__self__
        x = np.random.default_rng(variant).standard_normal((3, 16))
        assert type(copy) is type(model) and copy.scores(x).tobytes() == model.scores(x).tobytes()
        blocks = copy.param_arrays() + [copy.dense.weights, copy.dense.bias]
        blocks += [array for layer in copy.lstm_layers for array in (layer.kernel, layer.recurrent, layer.bias)]
        assert all(np.shares_memory(block, copy.params) for block in blocks)
        copy.params[...] = 0.0
        assert not any(block.any() for block in blocks)

    def test_layer_cache_holds_only_what_backward_reads(self):
        model = init_params(ModelConfig(variant=2, seq_len=7, hidden_sizes=(5, 3)), 0)
        _, cache = model.forward(np.random.default_rng(0).standard_normal((4, 7)))
        for lcache, d, h in zip(cache.lstm_caches, (1, 5), (5, 3)):
            assert [f.name for f in dataclasses.fields(lcache)] == ["x", "gates", "c"]
            assert lcache.x.shape == (4, 7, d)
            assert lcache.gates.shape == (7, 4, 4, h)
            assert lcache.c.shape == (7, 4, h)

    def test_training_cache_is_time_major_and_holds_no_h(self):
        model = init_params(ModelConfig(variant=2, seq_len=7, hidden_sizes=(5, 3)), 0)
        x = np.random.default_rng(0).standard_normal((4, 7))
        _, cache = model.forward(x, train=True, rng=np.random.default_rng(1))
        assert "h" not in [f.name for f in dataclasses.fields(layers.LstmLayerCache)]
        for lcache, h in zip(cache.lstm_caches, (5, 3)):
            assert lcache.gates.shape == (7, 4, 4, h) and lcache.gates.flags.c_contiguous
            assert lcache.c.shape == (7, 4, h) and lcache.c.flags.c_contiguous

    @pytest.mark.parametrize("variant,limit", [(1, 11.1), (2, 10.45)])
    def test_training_step_peak_in_hidden_floats_per_sample_step(self, variant, limit):
        # tracemalloc peak of one forward and backward at the paper's shape
        # (batch 4, T=4097), in floats per sample-step per hidden unit summed
        # over the layers: it reads 11.09 (model 1) and 10.41 (model 2).
        model = init_params(ModelConfig(variant=variant), 0)
        x = np.random.default_rng(0).standard_normal((4, model.config.seq_len))
        unit = x.size * sum(model.config.hidden_sizes) * 8

        def step():
            probs, cache = model.forward(x, train=True, rng=np.random.default_rng(1))
            forward_peak = tracemalloc.get_traced_memory()[1]
            model.backward(cache, probs - 0.5)
            assert forward_peak < tracemalloc.get_traced_memory()[1]

        assert peak(step) / unit <= limit

    def test_backward_leaves_cache_unchanged(self):
        model = init_params(ModelConfig(variant=2, seq_len=7, hidden_sizes=(5, 3)), 0)
        x = np.random.default_rng(0).standard_normal((4, 7))
        probs, cache = model.forward(x, train=True, rng=np.random.default_rng(1))
        arrays = [getattr(lc, f.name) for lc in cache.lstm_caches for f in dataclasses.fields(lc)]
        arrays += cache.dropout_masks + [cache.pre_dense, cache.probs]
        before = [a.tobytes() for a in arrays]
        model.backward(cache, probs - 0.5)
        assert [a.tobytes() for a in arrays] == before

    def test_eval_forward_ignores_dropout(self):
        config = ModelConfig(variant=2, seq_len=8, hidden_sizes=(5, 3))
        model = init_params(config, 4)
        x = np.random.default_rng(1).standard_normal((3, 8))
        s1 = model.scores(x)
        s2 = model.scores(x)
        assert s1.tobytes() == s2.tobytes()


# Bitwise equality of chunked and whole-batch products rests on how OpenBLAS
# groups rows; another BLAS may round a chunk's rows differently within an ulp.
openblas_only = pytest.mark.skipif(not OPENBLAS, reason="bitwise chunk parity is an OpenBLAS property")


def peak(fn, *args):
    """tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScores:
    """Model.scores runs lstm_step over chunks of SCORE_CHUNK rows with no
    cache; under OpenBLAS it gives forward's eval probabilities bit for bit."""

    def test_chunk_is_a_multiple_of_4(self):
        assert SCORE_CHUNK % 4 == 0

    @openblas_only
    @pytest.mark.parametrize("variant", [1, 2])
    def test_equal_to_forward_bitwise(self, variant):
        model = init_params(ModelConfig(variant=variant, seq_len=64), 3)
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 19, 20, 21, 22, 23, 41, 45):
            x = rng.standard_normal((n, 64))
            assert model.scores(x).tobytes() == model.forward(x)[0].tobytes(), n

    @openblas_only
    @pytest.mark.parametrize("variant", [1, 2])
    def test_chunks_of_a_multiple_of_4_rows_keep_the_bits(self, variant):
        # The property SCORE_CHUNK's comment states: rows scored in runs of any multiple of 4 give the
        # whole batch's scores. Runs of 2 or 3 rows change 4 to 13 of these 200 scores.
        model = init_params(ModelConfig(variant=variant, seq_len=64), 5)
        x = np.random.default_rng(5).standard_normal((200, 64))
        want = model.scores(x).tobytes()
        for rows in (4, 8, 16, 20, 44, 100, 200):
            chunks = [model.forward(x[lo : lo + rows])[0] for lo in range(0, 200, rows)]
            assert np.concatenate(chunks).tobytes() == want, rows

    @openblas_only
    @pytest.mark.parametrize("variant,seed", [(1, 8), (2, 1), (2, 6)])
    def test_one_row_tail_joins_previous_chunk(self, variant, seed):
        # With these seeds the last of 41 rows, scored alone, rounds differently.
        model = init_params(ModelConfig(variant=variant, seq_len=64), seed)
        x = np.random.default_rng(seed).standard_normal((41, 64))
        assert model.scores(x).tobytes() == model.forward(x)[0].tobytes()

    @pytest.mark.parametrize("hidden", [(6,), (6, 4)])
    def test_close_to_naive_reference_across_chunks(self, hidden):
        model = init_params(ModelConfig(variant=len(hidden), seq_len=9, hidden_sizes=hidden), 7)
        x = np.random.default_rng(8).standard_normal((45, 9))
        np.testing.assert_allclose(model.scores(x), naive_scores(model, x), rtol=0, atol=1e-12)

    def test_checks_input_like_forward(self):
        model = small_model()
        empty = model.scores(np.zeros((0, 8)))
        assert empty.dtype == np.float64 and empty.shape == (0,)
        with pytest.raises(ShapeError):
            model.scores(np.zeros((2, 7)))
        with pytest.raises(ShapeError):
            model.scores(np.zeros((2, 8, 1)))

    def test_keeps_no_full_batch_cache(self):
        model = init_params(ModelConfig(variant=1, seq_len=256), 0)
        x = np.random.default_rng(0).standard_normal((200, 256))
        scores_200 = peak(model.scores, x)
        assert scores_200 <= 1.5 * peak(model.scores, x[:40])
        assert scores_200 < peak(model.forward, x) / 4

    @pytest.mark.parametrize("hidden", [(6,), (6, 4)])
    def test_runs_without_the_training_forward(self, hidden, monkeypatch):
        model = init_params(ModelConfig(variant=len(hidden), seq_len=9, hidden_sizes=hidden), 7)
        x = np.random.default_rng(8).standard_normal((45, 9))
        want = {n: model.scores(x[:n]) for n in (2, 45)}

        def training_forward(*args):
            raise AssertionError("Model.scores called lstm_forward")

        monkeypatch.setattr(layers, "lstm_forward", training_forward)
        for n in (2, 45):
            assert model.scores(x[:n]).tobytes() == want[n].tobytes()

    def test_shares_the_step_with_the_training_forward(self, monkeypatch):
        model = init_params(ModelConfig(variant=2, seq_len=5, hidden_sizes=(6, 4)), 0)
        x = np.random.default_rng(1).standard_normal((3, 5))
        calls = []
        real = layers.lstm_step

        def counted(proj, act, h_prev, c_prev, h, c, params, scratch):
            calls.append(params.hidden_dim)
            real(proj, act, h_prev, c_prev, h, c, params, scratch)

        monkeypatch.setattr(layers, "lstm_step", counted)
        model.forward(x)
        assert calls == [6] * 5 + [4] * 5
        calls.clear()
        model.scores(x)
        assert calls == [6, 4] * 5

    @pytest.mark.parametrize("variant", [1, 2])
    def test_peak_is_a_small_share_of_the_forward_cache(self, variant):
        model = init_params(ModelConfig(variant=variant, seq_len=1024), 0)
        x = np.random.default_rng(0).standard_normal((8, 1024))
        assert peak(model.scores, x) < peak(model.forward, x) / 20


def whole_array_tanh_backward(dh_out, cache, params):
    """lstm_backward as it was when tanh(c) was one (batch, time, hidden)
    array taken before the loop; kept as the bitwise reference. It reads the
    time-major cache and takes the hidden states from lstm_forward."""
    steps, batch, hdim = cache.c.shape
    hs, _ = lstm_forward(cache.x, params)
    sl_i, sl_f, sl_c, sl_o = (slice(k * hdim, (k + 1) * hdim) for k in range(4))
    tanh_c = np.tanh(cache.c)
    zero = np.zeros((batch, hdim))
    dz = np.zeros((batch, steps, 4 * hdim))
    dh_next = np.zeros((batch, hdim))
    dc_next = np.zeros((batch, hdim))
    for t in reversed(range(steps)):
        it, ft, gt, ot = cache.gates[t]
        tct = tanh_c[t]
        c_prev = zero if t == 0 else cache.c[t - 1]
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
    h_prev_all = np.concatenate([zero[:, None, :], hs[:, :-1]], axis=1)
    drecurrent = h_prev_all.reshape(batch * steps, hdim).T @ flat_dz
    dbias = flat_dz.sum(axis=0)
    dx = (flat_dz @ params.kernel.T).reshape(cache.x.shape)
    return dx, (dkernel, drecurrent, dbias)


def random_layer(d, hdim, batch, steps, seed):
    """(params, cache, dh_out) of one LSTM layer with random weights and
    inputs; recurrent weights scaled by 1/sqrt(hidden), so that gradients
    stay finite over thousands of steps."""
    rng = np.random.default_rng(seed)
    recurrent = rng.uniform(-1, 1, (hdim, 4 * hdim)) / math.sqrt(hdim)
    params = LstmLayerParams(rng.uniform(-1, 1, (d, 4 * hdim)), recurrent, rng.uniform(-1, 1, 4 * hdim))
    _, cache = lstm_forward(3 * rng.standard_normal((batch, steps, d)), params)
    return params, cache, rng.standard_normal((batch, steps, hdim))


class TestLstmBackward:
    """lstm_backward takes tanh(c) one step at a time and holds no
    (batch, time, hidden) array of it."""

    @pytest.mark.parametrize(
        "d,hdim,batch,steps",
        [(d, h, b, 9) for d in (1, 3, 128) for h in (1, 3, 5, 64, 128) for b in (1, 3, 4)]
        + [(1, 128, 4, 4097)]
        # the edges of lstm_backward's blocks of BACKWARD_CHUNK steps
        + [
            (d, 5, b, t)
            for d in (1, 3)
            for b in (1, 3, 4)
            for t in (1, BACKWARD_CHUNK - 1, BACKWARD_CHUNK, BACKWARD_CHUNK + 1, 2 * BACKWARD_CHUNK + 1)
        ],
    )
    def test_equals_whole_array_tanh_form_bitwise(self, d, hdim, batch, steps):
        params, cache, dh_out = random_layer(d, hdim, batch, steps, 1000 * d + 10 * hdim + batch)
        dx, grads = layers.lstm_backward(dh_out, cache, params)
        want_dx, want_grads = whole_array_tanh_backward(dh_out, cache, params)
        assert dx.tobytes() == want_dx.tobytes()
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d,hdim", [(1, 64), (128, 64), (1, 128)])
    def test_peak_holds_no_tanh_c_array(self, d, hdim):
        # Beside the cache and dh_out: dz (4 arrays), the shifted hidden
        # states (1) and dx (d/hidden). A whole tanh(c) array adds one more.
        batch, steps = 4, 1024
        params, cache, dh_out = random_layer(d, hdim, batch, steps, 0)
        arrays = peak(layers.lstm_backward, dh_out, cache, params) / (batch * steps * hdim * 8)
        assert arrays <= 5.5 + d / hdim
