"""Confusion-matrix metrics and exact ROC-AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ShapeError

# Decision rule for every reported rate: score >= threshold predicts positive.
DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus derived rates at a fixed decision threshold.

    A rate whose denominator is zero is reported as None (undefined), never
    coerced to 0. `auc` is None when the evaluated samples contain a single
    class.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    auc: float | None
    threshold: float

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _ratio(num: int, den: int):
    return num / den if den else None


def _scores_and_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} and labels {labels.shape} must be equal-length 1-D")
    finite = np.isfinite(scores)
    if not finite.all():
        raise MetricUndefinedError(f"{scores.size - int(finite.sum())} of {scores.size} scores are not finite")
    return scores, labels


def confusion_report(scores, labels, threshold: float = DECISION_THRESHOLD) -> MetricsReport:
    """Metrics at the decision rule: score >= threshold predicts positive.

    Non-finite scores raise MetricUndefinedError.
    """
    scores, labels = _scores_and_labels(scores, labels)
    if scores.size == 0:
        raise ValueError("cannot evaluate zero samples")
    pred = scores >= threshold
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    try:
        auc = roc_auc(scores, labels)
    except MetricUndefinedError:
        auc = None
    return MetricsReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=_ratio(tp + tn, tp + fp + tn + fn),
        sensitivity=_ratio(tp, tp + fn),
        specificity=_ratio(tn, tn + fp),
        precision=_ratio(tp, tp + fp),
        auc=auc,
        threshold=threshold,
    )


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve, computed as the Mann-Whitney pair count.

    Each (positive, negative) pair counts 1 when the positive scores higher
    and 0.5 when they tie (Hanley & McNeil 1982), which equals the
    trapezoidal area under the ROC curve over all distinct thresholds. The
    count is summed as an integer and divided once, so the value is exact,
    not merely correct to rounding. Non-finite scores raise
    MetricUndefinedError: they have no place in the ranking.
    """
    scores, labels = _scores_and_labels(scores, labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    n_pos, n_neg = pos.size, neg.size
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUC needs both classes, got {n_pos} positive / {n_neg} negative"
        )
    # Twice the count: negatives strictly below plus negatives not above each positive.
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    return int((below + not_above).sum()) / (2 * n_pos * n_neg)
