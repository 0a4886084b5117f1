"""Evaluation metrics over fully labeled test sets."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import check_task
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
        return asdict(self)


def roc_auc(scores, labels) -> float:
    """Rank-based AUC: P(score_pos > score_neg) + 0.5 * P(tie).

    Uses midranks, so ties contribute one half.  A NaN score makes the
    AUC NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return float(_aucs(scores.reshape(1, -1), np.reshape(labels, (1, -1)))[0])


def _aucs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """roc_auc of each row of a (classes, samples) score matrix against the
    same rows of labels, from one argsort.

    A tied run of sorted scores at 0-based positions [a, b) shares the
    midrank (a + 1 + b) / 2.  Rank sums are sums of half-integers, exact
    in float64 in any order, so sort order within a tie cannot matter.
    """
    pos = labels == 1
    n_pos = np.count_nonzero(pos, axis=1)
    n_neg = np.count_nonzero(labels == 0, axis=1)
    if not (n_pos.all() and n_neg.all()):
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    k, n = scores.shape
    order = np.argsort(scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1).ravel()
    # Runs start where the sorted value changes or a row begins.
    head = np.ones(k * n, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    head[::n] = True
    starts = np.flatnonzero(head)
    ends = np.append(starts[1:], k * n)
    row = starts // n
    midrank = (starts + ends + 1 - 2 * n * row) / 2.0
    hits = np.add.reduceat(np.take_along_axis(pos, order, axis=1).ravel(),
                           starts, dtype=np.intp)
    pos_rank_sum = np.bincount(row, weights=hits * midrank, minlength=k)
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    auc[np.isnan(scores).any(axis=1)] = np.nan
    return auc


def macro_metrics(probs: np.ndarray, true_labels: np.ndarray,
                  task: str) -> EvalResult:
    """Macro AUC / F1 / precision / recall plus accuracy.

    Single-label predicts by argmax; multi-label thresholds each class at
    0.5.  Macro averages run over classes with at least one positive and
    one negative test instance; 0/0 ratios count as 0.
    """
    check_task(task)
    probs = np.asarray(probs, dtype=np.float64)
    true_labels = np.asarray(true_labels, dtype=np.float64)
    if probs.size == 0:
        raise ConfigError("empty test set")
    n, _ = probs.shape

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

    # A single-class column leaves every metric of its class undefined.
    scorable = true_labels.min(axis=0) != true_labels.max(axis=0)
    if not scorable.any():
        raise UndefinedMetricError("no class has both positives and negatives")
    aucs = _aucs(probs.T[scorable], true_labels.T[scorable])
    it = iter(aucs.tolist())
    per_class_auc = [next(it) if ok else None for ok in scorable]
    p, y = predicted[:, scorable] == 1, true_labels[:, scorable]
    tp = (p & (y == 1)).sum(axis=0).astype(np.float64)
    fp = (p & (y == 0)).sum(axis=0)
    fn = (~p & (y == 1)).sum(axis=0)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    return EvalResult(
        per_class_auc=per_class_auc,
        macro_auc=float(np.mean(aucs)),
        accuracy=accuracy,
        macro_f1=float(np.mean(f1)),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
    )


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, with 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)
