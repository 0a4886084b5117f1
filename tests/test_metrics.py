"""Evaluation metrics against hand-computed and brute-force oracles."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from fedlsm.errors import ConfigError
from fedlsm.metrics import (EvalResult, UndefinedMetricError, macro_metrics,
                            roc_auc)


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(0.5 for p in pos for q in neg if p == q)
    return (wins + ties) / (len(pos) * len(neg))


def test_roc_auc_oracle():
    auc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert auc == pytest.approx(0.75)


def test_roc_auc_perfect_and_inverted():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_roc_auc_ties_use_midranks():
    assert roc_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)
    assert roc_auc([0.5, 0.5, 0.7], [0, 1, 1]) == pytest.approx(0.75)


def test_roc_auc_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        assert roc_auc(scores, labels) == \
            pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


def test_roc_auc_equals_the_rankdata_formula_exactly():
    # roc_auc's own midranks replace scipy.stats.rankdata; reports depend
    # on the exact bits.
    rng = np.random.default_rng(1)
    for i in range(300):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.random(n)
        if i % 3:
            scores = np.round(scores, i % 3 - 1)  # few distinct values
        n_pos = int(labels.sum())
        want = (rankdata(scores)[labels == 1].sum()
                - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
        assert roc_auc(scores, labels) == want


def test_roc_auc_nan_score_gives_nan():
    assert np.isnan(roc_auc([0.1, np.nan, 0.3], [0, 1, 1]))


def test_roc_auc_undefined_on_single_class():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [1, 1])


def test_single_label_accuracy_and_macro():
    # 4 samples, 3 classes; sample 3 is predicted wrong.
    probs = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
        [0.6, 0.3, 0.1],
    ])
    truth = np.eye(3)[[0, 1, 2, 1]]
    res = macro_metrics(probs, truth, "single")
    assert res.accuracy == pytest.approx(0.75)
    # class 1: tp=1 fp=0 fn=1 -> precision 1, recall 0.5, f1 2/3
    # classes 0, 2: precision/recall differ; just check the range and AUCs
    assert 0 < res.macro_f1 < 1
    assert len(res.per_class_auc) == 3
    assert all(a is not None for a in res.per_class_auc)


def test_multi_label_threshold_and_zero_convention():
    # class 0: never predicted positive -> precision = recall = f1 = 0 (0/0)
    probs = np.array([
        [0.1, 0.9],
        [0.2, 0.8],
        [0.3, 0.1],
    ])
    truth = np.array([
        [1.0, 1.0],
        [0.0, 1.0],
        [0.0, 0.0],
    ])
    res = macro_metrics(probs, truth, "multi")
    # accuracy counts every (sample, class) cell: wrong cells are (0,0) only
    assert res.accuracy == pytest.approx(5 / 6)
    # class 0: no positive predictions -> 0/0 := 0 everywhere
    # class 1: tp=2 fp=0 fn=0 -> precision=recall=f1=1
    assert res.macro_precision == pytest.approx(0.5)
    assert res.macro_recall == pytest.approx(0.5)
    assert res.macro_f1 == pytest.approx(0.5)


def test_single_class_columns_are_skipped():
    probs = np.array([[0.9, 0.4], [0.8, 0.6], [0.1, 0.7]])
    truth = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    res = macro_metrics(probs, truth, "multi")
    assert res.per_class_auc[0] is None  # class 0 has no negatives
    assert res.per_class_auc[1] is not None
    assert res.macro_auc == res.per_class_auc[1]


def test_no_valid_class_raises():
    probs = np.array([[0.9], [0.8]])
    truth = np.array([[1.0], [1.0]])
    with pytest.raises(UndefinedMetricError):
        macro_metrics(probs, truth, "multi")


def test_empty_input_raises():
    with pytest.raises(ConfigError):
        macro_metrics(np.zeros((0, 3)), np.zeros((0, 3)), "single")


@pytest.mark.parametrize("task", ["singel", "Single", "", None])
def test_macro_metrics_rejects_an_unknown_task(task):
    probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8],
                      [0.6, 0.3, 0.1]])
    truth = np.eye(3)[[0, 1, 2, 1]]
    with pytest.raises(ConfigError, match=f"task: must be 'single' or "
                                          f"'multi', got {task!r}"):
        macro_metrics(probs, truth, task)


# --------------------------------------- whole-array F1 vs the parent loop
#
# reference_macro_metrics is macro_metrics as it was before precision,
# recall and F1 became whole-array expressions: one Python loop over the
# classes.  It is kept verbatim; the array form must give the same bits.

def reference_macro_metrics(probs: np.ndarray, true_labels: np.ndarray,
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


def _metric_bits(fn, probs, truth, task):
    """Every field of the result as (type, bytes), or (exception type,
    message)."""
    try:
        res = fn(probs, truth, task)
    except Exception as e:  # noqa: BLE001 - any exception must match
        return type(e), str(e)
    return {k: [None if a is None else (type(a), struct.pack("<d", a))
                for a in v] if k == "per_class_auc"
            else (type(v), struct.pack("<d", v))
            for k, v in res.as_dict().items()}


@st.composite
def _tables(draw):
    """(probs, truth, task): ties from rounding, NaN scores, single-class
    columns and truth entries other than 0 and 1."""
    task = draw(st.sampled_from(["single", "multi"]))
    # Past 8 classes NumPy's pairwise sum departs from a running sum.
    n, m = draw(st.integers(2, 30)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random((n, m))
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        probs = np.round(probs, decimals)
    if task == "single":
        probs /= np.maximum(probs.sum(axis=1, keepdims=True), 1e-12)
        # Sometimes only the first k classes occur.
        k = m if draw(st.booleans()) else draw(st.integers(1, m))
        truth = np.eye(m)[rng.integers(0, k, size=n)]
    else:
        rate = draw(st.integers(0, 10)) / 10
        truth = (rng.random((n, m)) < rate) * 1.0
    if draw(st.integers(0, 9)) == 0:
        probs[rng.integers(0, n), rng.integers(0, m)] = np.nan
    if draw(st.integers(0, 4)) == 0:
        truth[rng.random((n, m)) < 0.2] = draw(st.sampled_from([0.5, np.nan]))
    return probs, truth, task


def _edge_cases(test):
    """Tables the one-sort AUC must treat as the per-column code did: a
    scorable column whose labels are only 0 and 0.5 (no positive), an
    all-NaN score column, and scores tied across every row."""
    half = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
    no_positive = np.array([[1.0, 0.0], [0.0, 0.5], [1.0, 0.0], [0.0, 0.5]])
    nan_column = half.copy()
    nan_column[:, 1] = np.nan
    mixed = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    tied = np.full((5, 3), 0.5)
    for case in [(half, no_positive, "multi"), (nan_column, mixed, "multi"),
                 (tied, np.eye(3)[[0, 1, 2, 0, 1]], "single"),
                 (tied, np.eye(3)[[0, 1, 2, 0, 1]], "multi")]:
        test = example(case=case)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(case=_tables())
@_edge_cases
def test_macro_metrics_matches_the_parent_loop_bit_for_bit(case):
    probs, truth, task = case
    assert _metric_bits(macro_metrics, probs, truth, task) == \
        _metric_bits(reference_macro_metrics, probs, truth, task)


# ------------------------------------------- one-sort AUCs vs the parent
#
# parent_roc_auc is roc_auc as it was before every class's AUC came from
# one argsort of the score matrix: midranks from two searchsorted calls
# per column.  It is kept verbatim; the matrix code must give its bits.

def parent_roc_auc(scores, labels) -> float:
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


def _auc_bits(aucs):
    return [None if a is None else (type(a), struct.pack("<d", a))
            for a in aucs]


def _one_sort_aucs(probs, truth, task):
    try:
        return _auc_bits(macro_metrics(probs, truth, task).per_class_auc)
    except UndefinedMetricError as e:
        return str(e)


def _parent_aucs(probs, truth):
    truth = np.asarray(truth, dtype=np.float64)
    scorable = truth.min(axis=0) != truth.max(axis=0)
    try:
        aucs = [parent_roc_auc(probs[:, c], truth[:, c]) if ok else None
                for c, ok in enumerate(scorable)]
    except UndefinedMetricError as e:
        return str(e)
    if not scorable.any():
        return "no class has both positives and negatives"
    return _auc_bits(aucs)


@settings(max_examples=500, deadline=None)
@given(case=_tables())
@_edge_cases
def test_one_sort_aucs_match_the_parent_roc_auc_bit_for_bit(case):
    probs, truth, task = case
    assert _one_sort_aucs(probs, truth, task) == _parent_aucs(probs, truth)
    for c in range(probs.shape[1]):
        try:
            want = _auc_bits([parent_roc_auc(probs[:, c], truth[:, c])])
        except UndefinedMetricError as e:
            want = str(e)
        try:
            got = _auc_bits([roc_auc(probs[:, c], truth[:, c])])
        except UndefinedMetricError as e:
            got = str(e)
        assert got == want
