from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eeglstm.errors import MetricUndefinedError, ShapeError
from eeglstm.metrics import confusion_report, roc_auc


def pairwise_auc(scores, labels):
    """Brute-force Mann-Whitney statistic with 0.5 tie credit (test oracle)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    twice = 0
    for p in pos:
        for n in neg:
            if p > n:
                twice += 2
            elif p == n:
                twice += 1
    return twice / (2 * len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_pairwise_enumeration_example(self):
        # pairs: (.8,.6) yes, (.8,.2) yes, (.4,.6) no, (.4,.2) yes -> 3/4
        assert roc_auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == 0.75

    def test_label_flip_antisymmetry(self):
        scores = [0.1, 0.7, 0.3, 0.9, 0.5]
        labels = np.array([0, 1, 1, 0, 1])
        a = roc_auc(scores, labels)
        b = roc_auc(scores, 1 - labels)
        assert b == pytest.approx(1.0 - a, abs=1e-12)

    def test_all_tied_scores_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricUndefinedError):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricUndefinedError):
            roc_auc([0.1, 0.9], [0, 0])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            roc_auc([0.1, 0.9], [1, 0, 1])

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(MetricUndefinedError, match="not finite"):
                roc_auc([bad, 0.2, 0.3], [1, 0, 1])

    def test_signed_zero_tie_gives_half(self):
        assert roc_auc([0.0, -0.0], [1, 0]) == 0.5
        assert roc_auc([-0.0, 0.0], [1, 0]) == 0.5

    def test_large_tied_grid_equals_vectorized_pairwise(self):
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 9, 2000) / 8.0
        labels = rng.integers(0, 2, 2000)
        pos, neg = scores[labels == 1], scores[labels == 0]
        twice = 2 * int((pos[:, None] > neg[None, :]).sum()) + int((pos[:, None] == neg[None, :]).sum())
        assert roc_auc(scores, labels) == twice / (2 * pos.size * neg.size)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), st.integers(0, 1)),
            min_size=2,
            max_size=50,
        )
    )
    def test_trapezoid_equals_pairwise_exactly(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        if len(set(labels)) < 2:
            return
        assert roc_auc(scores, labels) == pairwise_auc(scores, labels)


class TestConfusionReport:
    def test_perfectly_separated_scores(self):
        rep = confusion_report(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 0, 2, 0)
        assert rep.accuracy == rep.sensitivity == rep.specificity == rep.precision == 1.0
        assert rep.auc == 1.0

    def test_hand_computed_counts(self):
        # tp=3, fn=1, tn=4, fp=2
        scores = np.array([0.9, 0.8, 0.7, 0.1, 0.6, 0.9, 0.2, 0.3, 0.4, 0.1])
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        rep = confusion_report(scores, labels)
        assert (rep.tp, rep.fn, rep.tn, rep.fp) == (3, 1, 4, 2)
        assert rep.sensitivity == pytest.approx(0.75)
        assert rep.specificity == pytest.approx(4 / 6)
        assert rep.precision == pytest.approx(0.6)
        assert rep.accuracy == pytest.approx(0.7)

    def test_threshold_tie_predicts_positive(self):
        rep = confusion_report(np.array([0.5, 0.5]), np.array([1, 0]), threshold=0.5)
        assert rep.tp == 1 and rep.fp == 1 and rep.tn == 0 and rep.fn == 0

    def test_undefined_precision_is_flagged_not_zero(self):
        # no positive predictions -> precision 0/0
        rep = confusion_report(np.array([0.1, 0.2]), np.array([1, 0]))
        assert rep.precision is None
        assert rep.sensitivity == 0.0

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            rep = confusion_report(scores, labels)
            assert rep.total == n

    def test_single_class_auc_is_none(self):
        rep = confusion_report(np.array([0.4, 0.6]), np.array([1, 1]))
        assert rep.auc is None

    def test_asdict_keys_in_metrics_json_order(self):
        # metrics.json and result.json serialize reports with asdict: field order is byte order
        rep = confusion_report(np.array([0.9, 0.1]), np.array([1, 0]))
        assert list(asdict(rep)) == [
            "tp", "fp", "tn", "fn",
            "accuracy", "sensitivity", "specificity", "precision", "auc", "threshold",
        ]

    def test_non_finite_scores_rejected_not_auc_none(self):
        with pytest.raises(MetricUndefinedError, match="not finite"):
            confusion_report(np.array([np.nan, 0.2, 0.3]), np.array([1, 0, 1]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            confusion_report(np.array([]), np.array([]))
