"""Confusion-matrix metrics and exact ROC-AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ShapeError


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

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "precision": self.precision,
            "auc": self.auc,
            "threshold": self.threshold,
        }


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


def confusion_report(scores, labels, threshold: float = 0.5) -> MetricsReport:
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
    """Area under the ROC curve, trapezoidal over all distinct thresholds.

    Cumulative true/false positive counts are accumulated as integers and
    divided once, so the result equals the pairwise Mann-Whitney statistic
    (ties credited 0.5) exactly, not merely to rounding. Non-finite scores
    raise MetricUndefinedError: they have no place in the ranking.
    """
    scores, labels = _scores_and_labels(scores, labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUC needs both classes, got {n_pos} positive / {n_neg} negative"
        )
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]

    area2 = 0  # twice the area, in (tp x fp) count units
    tp = fp = 0
    i = 0
    n = s.size
    while i < n:
        j = i
        dtp = dfp = 0
        while j < n and s[j] == s[i]:
            if y[j] == 1:
                dtp += 1
            else:
                dfp += 1
            j += 1
        # Trapezoid between consecutive ROC points (fp, tp) -> (fp+dfp, tp+dtp).
        area2 += dfp * (2 * tp + dtp)
        tp += dtp
        fp += dfp
        i = j
    return area2 / (2 * n_pos * n_neg)
