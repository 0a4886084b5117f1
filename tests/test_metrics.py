"""Evaluation metrics against hand-computed and brute-force oracles."""

import numpy as np
import pytest
from scipy.stats import rankdata

from fedlsm.errors import ConfigError
from fedlsm.metrics import UndefinedMetricError, macro_metrics, roc_auc


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
