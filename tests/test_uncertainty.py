"""Entropy scoring and dataset partitioning."""

import numpy as np
import pytest

from fedlsm import nn
from fedlsm.errors import ConfigError
from fedlsm.uncertainty import (entropy_multi, entropy_single, partition,
                                score_dataset)


def test_scoring_and_partition_reject_an_unknown_task():
    params = nn.init_params([2, 4], 3, seed=0)
    xs = make_dataset(np.arange(12.0).reshape(6, 2))
    for task in ("singel", "Single"):
        with pytest.raises(ConfigError, match=f"got {task!r}"):
            score_dataset(xs, params, task, [1, 2])
        with pytest.raises(ConfigError, match=f"got {task!r}"):
            partition(xs, params, task, [1, 2], 0.5, 0.2)


def make_dataset(xs):
    """The (n, d) input matrix that partition and score_dataset take."""
    return np.asarray(xs, dtype=np.float64).reshape(len(xs), -1)


def test_entropy_single_oracle():
    assert entropy_single(np.array([0.7, 0.2, 0.1])) == \
        pytest.approx(0.8018, abs=5e-5)


def test_entropy_single_uniform_and_pointmass():
    assert entropy_single(np.full(4, 0.25)) == pytest.approx(np.log(4))
    assert entropy_single(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_single_validation():
    with pytest.raises(ConfigError):
        entropy_single(np.array([0.5, 0.6]))
    with pytest.raises(ConfigError):
        entropy_single(np.array([-0.1, 1.1]))


def test_entropy_multi_bounds_and_endpoints():
    assert entropy_multi(np.array([0.5, 0.5, 0.9]), unknown=[0, 1]) == \
        pytest.approx(1.0)
    assert entropy_multi(np.array([0.0, 1.0, 0.5]), unknown=[0, 1]) == 0.0
    # only the unknown columns matter
    assert entropy_multi(np.array([0.5, 0.123, 0.9]), unknown=[0]) == \
        pytest.approx(1.0)
    with pytest.raises(ConfigError):
        entropy_multi(np.array([0.5]), unknown=[])
    with pytest.raises(ConfigError):
        entropy_multi(np.array([1.5]), unknown=[0])


def test_partition_size_oracle():
    # 10 samples at frac_l=0.3, frac_h=0.2 must split 3 / 5 / 2.
    params = nn.init_params([2, 4], 3, seed=0)
    dataset = make_dataset(np.random.default_rng(0).normal(size=(10, 2)))
    part = partition(dataset, params, "single", (1, 2), 0.3, 0.2)
    assert (len(part.low), len(part.mid), len(part.high)) == (3, 5, 2)


def test_partition_orders_by_entropy():
    params = nn.init_params([2, 4], 3, seed=1)
    dataset = make_dataset(np.random.default_rng(1).normal(size=(20, 2)) * 3)
    part = partition(dataset, params, "single", (1, 2), 0.25, 0.25)
    scores = part.entropy
    assert scores.shape == (20,)
    if len(part.low) and len(part.mid):
        assert scores[part.low].max() <= scores[part.mid].min()
    if len(part.mid) and len(part.high):
        assert scores[part.mid].max() <= scores[part.high].min()
    together = np.concatenate([part.low, part.mid, part.high])
    assert sorted(together.tolist()) == list(range(20))


def test_partition_tie_break_is_stable():
    params = nn.init_params([2, 4], 3, seed=2)
    # identical inputs -> identical entropies -> index order decides
    dataset = make_dataset(np.tile([0.5, -0.5], (6, 1)))
    part = partition(dataset, params, "single", (1,), 0.5, 0.5)
    assert part.low.tolist() == [0, 1, 2]
    assert part.high.tolist() == [3, 4, 5]


def test_partition_rejects_bad_inputs():
    params = nn.init_params([2, 4], 3, seed=0)
    with pytest.raises(ConfigError):
        partition(np.zeros((0, 2)), params, "single", (1,), 0.3, 0.2)
    dataset = make_dataset([[0.0, 0.0]])
    with pytest.raises(ConfigError):
        partition(dataset, params, "single", (1,), 0.7, 0.7)


def test_score_dataset_multi_uses_unknown_columns():
    params = nn.init_params([2, 4], 3, seed=3)
    dataset = make_dataset(np.random.default_rng(2).normal(size=(5, 2)))
    s01 = score_dataset(dataset, params, "multi", (0, 1))
    s2 = score_dataset(dataset, params, "multi", (2,))
    assert s01.shape == (5,)
    assert not np.allclose(s01, s2)
    assert (s01 >= 0).all() and (s01 <= 1).all()


@pytest.mark.parametrize("m", [3, 7, 11])
def test_score_dataset_matches_per_row_entropies_exactly(m):
    rng = np.random.default_rng(m)
    params = nn.init_params([4, 6], m, seed=m)
    params.proxies[...] *= 8.0  # spread outputs from near-uniform to saturated
    xs = rng.normal(size=(64, 4)) * 3
    logits = nn.forward(params, xs).logits
    single = np.array([entropy_single(p) for p in nn.softmax(logits)])
    assert score_dataset(xs, params, "single", ()).tobytes() == \
        single.tobytes()
    for unknown in ([0], [1, 2], list(range(m - 1))):
        multi = np.array([entropy_multi(p, unknown)
                          for p in nn.sigmoid(logits)])
        assert score_dataset(xs, params, "multi", unknown).tobytes() == \
            multi.tobytes()


def test_multi_label_client_with_no_unknown_class_splits_by_index():
    params = nn.init_params([2, 4], 3, seed=4)
    xs = make_dataset(np.random.default_rng(4).normal(size=(6, 2)))
    assert (score_dataset(xs, params, "multi", ()) == 0.0).all()
    part = partition(xs, params, "multi", (), 0.5, 0.5)
    assert part.low.tolist() == [0, 1, 2]
    assert part.high.tolist() == [3, 4, 5]
    with pytest.raises(ConfigError, match="nonempty"):
        entropy_multi(np.array([0.5, 0.5]), [])
