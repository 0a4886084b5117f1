"""Evaluation metrics over fully labeled test sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class UndefinedMetricError(ValueError):
    """Raised when a metric has no value (e.g. AUC with one class only)."""


@dataclass
class EvalResult:
    per_class_auc: list  # float per class, None where AUC is undefined
    macro_auc: float
    accuracy: float
    macro_f1: float
    macro_precision: float
    macro_recall: float

    def as_dict(self) -> dict:
        return {
            "macro_auc": self.macro_auc,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "per_class_auc": self.per_class_auc,
        }


def roc_auc(scores, labels) -> float:
    """Rank-based AUC: P(score_pos > score_neg) + 0.5 * P(tie).

    Uses midranks, so ties contribute one half.  A NaN score makes the
    AUC NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    if np.isnan(scores).any():
        return float("nan")
    ordered = np.sort(scores)
    ranks = (np.searchsorted(ordered, scores, "left")
             + np.searchsorted(ordered, scores, "right") + 1) / 2.0
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_metrics(probs: np.ndarray, true_labels: np.ndarray,
                  task: str) -> EvalResult:
    """Macro AUC / F1 / precision / recall plus accuracy.

    Single-label predicts by argmax; multi-label thresholds each class at
    0.5.  Macro averages run over classes with at least one positive and
    one negative test instance; 0/0 ratios count as 0.
    """
    probs = np.asarray(probs, dtype=np.float64)
    true_labels = np.asarray(true_labels, dtype=np.float64)
    if probs.size == 0:
        raise ConfigError("empty test set")
    n, m = probs.shape

    if task == "single":
        pred_class = probs.argmax(axis=1)
        true_class = true_labels.argmax(axis=1)
        predicted = np.zeros_like(probs)
        predicted[np.arange(n), pred_class] = 1.0
        accuracy = float((pred_class == true_class).mean())
    else:
        predicted = (probs >= 0.5).astype(np.float64)
        # Overall accuracy across all (sample, class) binary decisions.
        accuracy = float((predicted == true_labels).mean())

    per_class_auc: list = []
    f1s, precisions, recalls, aucs = [], [], [], []
    for c in range(m):
        y = true_labels[:, c]
        if y.min() == y.max():  # single-class column: metrics undefined
            per_class_auc.append(None)
            continue
        aucs.append(roc_auc(probs[:, c], y))
        per_class_auc.append(aucs[-1])
        p = predicted[:, c]
        tp = float(((p == 1) & (y == 1)).sum())
        fp = float(((p == 1) & (y == 0)).sum())
        fn = float(((p == 0) & (y == 1)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)

    if not aucs:
        raise UndefinedMetricError("no class has both positives and negatives")
    return EvalResult(
        per_class_auc=per_class_auc,
        macro_auc=float(np.mean(aucs)),
        accuracy=accuracy,
        macro_f1=float(np.mean(f1s)),
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
    )
