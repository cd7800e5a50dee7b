import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eeglstm.errors import ShapeError
from eeglstm.layers import (
    DenseParams,
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


def run_scalar(xs, params):
    """lstm_forward on one d=1 sequence; returns the (1, T, 1)-shaped cache."""
    return lstm_forward(np.asarray(xs, dtype=np.float64).reshape(1, -1, 1), params)


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
        cache = run_scalar([3.7], scalar_params())
        assert cache.h[0, 0, 0] == 0.0 and cache.c[0, 0, 0] == 0.0
        # gates sit at sigmoid(0) = 0.5, candidate at tanh(0) = 0
        gate_i, gate_f, gate_c, gate_o = cache.gates[0, 0]
        assert gate_i == 0.5
        assert gate_f == 0.5
        assert gate_o == 0.5
        assert gate_c == 0.0

    def test_candidate_bias_case(self):
        # weights zero, b_c = 1 so the candidate is tanh(1), zero prev state
        cache = run_scalar([0.3], scalar_params(b_c=1.0))
        c, h = cache.c[0, 0, 0], cache.h[0, 0, 0]
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
        cache = run_scalar([1.0, 0.0], params)
        c1 = 0.5 * math.tanh(1.0)
        c, h = cache.c[0, 1, 0], cache.h[0, 1, 0]
        c_expect = scalar_sigmoid(1.0) * c1
        h_expect = 0.5 * math.tanh(c_expect)
        assert cache.c[0, 0, 0] == pytest.approx(c1, abs=1e-15)
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
        cache = run_scalar([-1.3, 0.7], params)
        for t, x in enumerate((-1.3, 0.7)):
            h, c = scalar_cell_oracle(x, h, c, w, u, b)
            assert cache.h[0, t, 0] == pytest.approx(h, abs=1e-14)
            assert cache.c[0, t, 0] == pytest.approx(c, abs=1e-14)
        assert h != 0.0 and c != 0.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            lstm_forward(np.zeros((1, 1, 2)), scalar_params())  # input dim 2 != 1
        with pytest.raises(ShapeError):
            lstm_forward(np.zeros((1, 1)), scalar_params())  # no feature axis


class TestLstmSequence:
    def test_all_zero_params_zero_output(self):
        params = LstmLayerParams(np.zeros((1, 12)), np.zeros((3, 12)), np.zeros(12))
        cache = lstm_forward(np.ones((1, 5, 1)), params)
        assert cache.h.shape == (1, 5, 3)
        assert np.all(cache.h == 0.0)

    def test_two_step_unroll_matches_scalar_oracle(self):
        cache = run_scalar([1.0, 1.0], scalar_params(b_c=1.0))
        b = {"i": 0.0, "f": 0.0, "c": 1.0, "o": 0.0}
        zero = {g: 0.0 for g in "ifco"}
        h1, c1 = scalar_cell_oracle(1.0, 0.0, 0.0, zero, zero, b)
        h2, c2 = scalar_cell_oracle(1.0, h1, c1, zero, zero, b)
        assert cache.h[0, 0, 0] == pytest.approx(h1, abs=1e-15)
        assert cache.h[0, 1, 0] == pytest.approx(h2, abs=1e-15)
        assert cache.c[0, 1, 0] == pytest.approx(c2, abs=1e-15)

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
        cache = lstm_forward(rng.uniform(-5, 5, (2, steps, 1)), params)
        assert np.all(np.abs(cache.h) < 1.0)
        gate_i, gate_f, _, gate_o = np.split(cache.gates, 4, axis=-1)
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
        cache = lstm_forward(x, params)
        h_ref, c_ref = naive_lstm(x, params)
        np.testing.assert_allclose(cache.h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.c, c_ref, rtol=0, atol=1e-12)

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

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            DenseParams(np.zeros(4), np.zeros(1))  # bias must be a 0-d scalar
        with pytest.raises(ShapeError):
            DenseParams(np.zeros((4, 1)), np.zeros(()))


class TestDropout:
    def test_eval_mode_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        out, mask = dropout_forward(v, 0.35, train=False)
        assert np.array_equal(out, v)
        assert mask is None

    def test_p_zero_train_is_identity(self):
        v = np.array([1.0, -2.0])
        out, mask = dropout_forward(v, 0.0, rng=np.random.default_rng(0), train=True)
        assert np.array_equal(out, v)
        assert mask is None

    def test_invalid_probability(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                dropout_forward(np.ones(3), p)

    def test_train_mode_needs_rng(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones(3), 0.5, rng=None, train=True)

    def test_monte_carlo_expectation(self):
        # inverted dropout preserves the mean: one long constant vector
        out, _ = dropout_forward(np.ones(100_000), 0.35, rng=np.random.default_rng(42), train=True)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_mask_is_deterministic_given_seed(self):
        v = np.ones(64)
        out1, m1 = dropout_forward(v, 0.35, rng=np.random.default_rng(7), train=True)
        out2, m2 = dropout_forward(v, 0.35, rng=np.random.default_rng(7), train=True)
        assert out1.tobytes() == out2.tobytes()
        assert m1.tobytes() == m2.tobytes()

    def test_mask_values_are_zero_or_scaled(self):
        _, mask = dropout_forward(np.ones(1000), 0.35, rng=np.random.default_rng(1), train=True)
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
            assert np.all(layer.gate_bias("f") == 1.0)
            for gate in "ico":
                assert np.all(layer.gate_bias(gate) == 0.0)
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

    def test_layer_cache_holds_only_what_backward_reads(self):
        model = init_params(ModelConfig(variant=2, seq_len=7, hidden_sizes=(5, 3)), 0)
        _, cache = model.forward(np.random.default_rng(0).standard_normal((4, 7)))
        for lcache, d, h in zip(cache.lstm_caches, (1, 5), (5, 3)):
            assert [f.name for f in dataclasses.fields(lcache)] == ["x", "gates", "c", "h"]
            assert lcache.x.shape == (4, 7, d)
            assert lcache.gates.shape == (4, 7, 4 * h)
            assert lcache.c.shape == lcache.h.shape == (4, 7, h)

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
