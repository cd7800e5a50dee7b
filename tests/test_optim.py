import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eeglstm.errors import ShapeError
from eeglstm.optim import PROB_CLIP, TrainConfig, adam_step, bce_loss


class TestBceLoss:
    def test_perfect_prediction_hits_clip_boundary(self):
        loss, _ = bce_loss(1.0, 1)
        # -ln(1 - 1e-7), essentially zero
        assert loss == pytest.approx(1e-7, rel=1e-6)
        assert loss > 0.0

    def test_coin_flip_is_ln2(self):
        for y in (0, 1):
            loss, _ = bce_loss(0.5, y)
            assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            bce_loss(0.5, 2)
        with pytest.raises(ValueError):
            bce_loss(np.array([0.5, 0.5]), np.array([0, 0.3]))

    def test_gradient_matches_clipped_formula(self):
        p, y = 0.25, 1.0
        _, grad = bce_loss(p, y)
        assert grad == pytest.approx(-1.0 / 0.25, abs=1e-15)
        # outside the clip interval the gradient is evaluated at the clipped p
        _, grad_hi = bce_loss(1.0, 0.0)
        assert grad_hi == pytest.approx(1.0 / PROB_CLIP, rel=1e-9)

    def test_arrays_elementwise(self):
        loss, grad = bce_loss(np.array([0.5, 0.9]), np.array([1.0, 1.0]))
        assert loss.shape == grad.shape == (2,)
        assert loss[0] == pytest.approx(math.log(2.0))

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_label_flip_symmetry(self, p):
        # 1-(1-p) rounds in float64; at the clip boundary that costs ~1e-9
        loss_pos, _ = bce_loss(p, 1)
        loss_neg, _ = bce_loss(1.0 - p, 0)
        assert loss_neg == pytest.approx(loss_pos, rel=1e-8, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False))
    def test_loss_non_negative_and_monotone(self, p):
        loss, grad = bce_loss(p, 1)
        assert loss >= 0.0
        assert grad < 0.0  # decreasing in p for y=1
        _, grad0 = bce_loss(p, 0)
        assert grad0 > 0.0


def first_step(params, grads, cfg):
    """params, m and v after one Adam step from zero moments."""
    params, grads = np.array(params, dtype=np.float64), np.array(grads, dtype=np.float64)
    m, v = np.zeros_like(params), np.zeros_like(params)
    adam_step(params, grads, m, v, 1, cfg)
    return params, m, v


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params, _, _ = first_step([1.0, -2.0, 3.5], np.zeros(3), TrainConfig())
        assert np.array_equal(params, [1.0, -2.0, 3.5])

    def test_single_step_closed_form(self):
        cfg = TrainConfig()
        new, m_new, v_new = first_step([0.0], [1.0], cfg)
        # independent closed form at t=1
        m = 0.1
        v = 0.001
        m_hat = m / (1.0 - 0.9)
        v_hat = v / (1.0 - 0.999)
        expected = -cfg.learning_rate * m_hat / (math.sqrt(v_hat) + cfg.epsilon)
        assert new[0] == pytest.approx(expected, abs=1e-16)
        assert new[0] == pytest.approx(-0.000999999990, abs=1e-12)
        assert m_new[0] == pytest.approx(0.1) and v_new[0] == pytest.approx(0.001)

    def test_updates_in_place_as_the_recurrence(self):
        # A pure rewrite of Algorithm 1 of Kingma & Ba, run beside the
        # in-place step: every step must agree bit for bit.
        cfg = TrainConfig(learning_rate=0.01)
        rng = np.random.default_rng(0)
        params, m, v = rng.standard_normal(5), np.zeros(5), np.zeros(5)
        ref_params, ref_m, ref_v = params.copy(), m.copy(), v.copy()
        for t in range(1, 7):
            g = rng.standard_normal(5)
            g_before = g.copy()
            assert adam_step(params, g, m, v, t, cfg) is None
            ref_m = cfg.beta1 * ref_m + (1.0 - cfg.beta1) * g
            ref_v = cfg.beta2 * ref_v + (1.0 - cfg.beta2) * g**2
            m_hat = ref_m / (1.0 - cfg.beta1**t)
            v_hat = ref_v / (1.0 - cfg.beta2**t)
            ref_params = ref_params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert params.tobytes() == ref_params.tobytes()
            assert m.tobytes() == ref_m.tobytes() and v.tobytes() == ref_v.tobytes()
            assert g.tobytes() == g_before.tobytes()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), 1, TrainConfig())
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(4), 1, TrainConfig())

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_first_step_magnitude_identity(self, g):
        # at t=1 bias correction cancels: |delta| = lr * |g| / (|g| + eps),
        # i.e. ~lr up to eps/|g|
        for sign in (1.0, -1.0):
            cfg = TrainConfig()
            new, _, _ = first_step([0.0], [sign * g], cfg)
            expected = cfg.learning_rate * g / (g + cfg.epsilon)
            assert abs(new[0]) == pytest.approx(expected, rel=1e-12)
            assert math.copysign(1.0, new[0]) == -sign
            if g >= 1e-2:
                assert abs(new[0]) == pytest.approx(cfg.learning_rate, rel=1e-5)

    def test_deterministic_evolution(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(5) for _ in range(4)]

        def run():
            params, m, v = np.zeros(5), np.zeros(5), np.zeros(5)
            for t, g in enumerate(grads, start=1):
                adam_step(params, g, m, v, t, TrainConfig())
            return params

        assert run().tobytes() == run().tobytes()


class TestTrainConfig:
    def test_defaults_follow_recipe(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.batch_size == 4 and cfg.epochs == 20
        assert cfg.epsilon == 1e-8

    # Ids are the positions the cases held when the list also checked Adam's
    # decay rates and epsilon, which are no longer settable.
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": -1},
            {"seed": -3},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
        ],
        ids=[f"kwargs{i}" for i in (0, 3, 4, 5, 6, 7)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
