"""Aggregation algebra and the round loop."""

import numpy as np
import pytest

from fedlsm import nn, server
from fedlsm.client import ClientConfig, ClientUpdate, local_train
from fedlsm.data import EvalSet, FederationConfig, gen_federation
from fedlsm.errors import AggregationError, ConfigError
from fedlsm.server import (_check_updates, aggregate, aggregate_proxies,
                           evaluate, run_federation)


def make_update(client_id, n, edd, seed, dims=(3, 4), m=2):
    return ClientUpdate(client_id=client_id,
                        params=nn.init_params(list(dims), m, seed=seed),
                        n_samples=n, edd=np.asarray(edd, dtype=np.float64))


def test_single_client_aggregation_is_identity():
    u = make_update(0, 10, [1.0, 2.0], seed=4)
    agg = aggregate([u], proxy_mode="awpa")
    assert np.allclose(agg.proxies, u.params.proxies)
    assert np.allclose(agg.layers[0][0], u.params.layers[0][0])


def test_feature_aggregation_weighting_oracle():
    a = make_update(0, 1, [1.0, 1.0], seed=1)
    b = make_update(1, 3, [1.0, 1.0], seed=2)
    layers = aggregate([a, b]).layers
    expected = 0.25 * a.params.layers[0][0] + 0.75 * b.params.layers[0][0]
    assert np.allclose(layers[0][0], expected)


def test_proxy_aggregation_awpa_oracle():
    a = make_update(0, 5, [2.0, 0.0], seed=1)
    b = make_update(1, 5, [2.0, 4.0], seed=2)
    proxies, bias = aggregate_proxies([a, b], mode="awpa")
    # class 0: counts 2/2 -> equal weights; class 1: counts 0/4 -> all b
    assert np.allclose(proxies[0],
                       0.5 * a.params.proxies[0] + 0.5 * b.params.proxies[0])
    assert np.allclose(proxies[1], b.params.proxies[1])
    assert np.allclose(bias[1], b.params.proxy_bias[1])


def test_proxy_aggregation_zero_count_falls_back_to_sample_weights():
    a = make_update(0, 1, [0.0, 3.0], seed=1)
    b = make_update(1, 3, [0.0, 1.0], seed=2)
    proxies, _ = aggregate_proxies([a, b], mode="awpa")
    assert np.allclose(proxies[0],
                       0.25 * a.params.proxies[0] + 0.75 * b.params.proxies[0])


def test_proxy_aggregation_fedavg_ignores_counts():
    a = make_update(0, 1, [9.0, 0.0], seed=1)
    b = make_update(1, 1, [0.0, 9.0], seed=2)
    proxies, _ = aggregate_proxies([a, b], mode="fedavg")
    assert np.allclose(proxies,
                       0.5 * a.params.proxies + 0.5 * b.params.proxies)


def reference_aggregate_proxies(updates, mode):
    """The per-class loop the one-expression weights replaced."""
    updates = sorted(updates, key=lambda u: u.client_id)
    counts = np.array([u.n_samples for u in updates], dtype=np.float64)
    w_samples = counts / counts.sum()
    m = updates[0].params.num_classes
    proxy_stack = np.stack([u.params.proxies for u in updates])
    bias_stack = np.stack([u.params.proxy_bias for u in updates])
    if mode == "fedavg":
        weights = np.tile(w_samples[:, None], (1, m))
    else:
        q = np.stack([np.asarray(u.edd, dtype=np.float64) for u in updates])
        totals = q.sum(axis=0)
        weights = np.empty_like(q)
        for c in range(m):
            if totals[c] > 0:
                weights[:, c] = q[:, c] / totals[c]
            else:
                weights[:, c] = w_samples
    proxies = np.einsum("km,kmf->mf", weights, proxy_stack)
    return proxies, (weights * bias_stack).sum(axis=0)


@pytest.mark.parametrize("mode", ["awpa", "fedavg"])
@pytest.mark.parametrize("k", [5, 12])
@pytest.mark.parametrize("seed", range(3))
def test_proxy_aggregation_matches_per_class_reference_exactly(mode, k,
                                                               seed):
    rng = np.random.default_rng(seed)
    m = 7
    edd = rng.integers(0, 40, size=(k, m)) * (rng.random((k, m)) < 0.6)
    edd[:, rng.choice(m, size=2, replace=False)] = 0  # nobody counted
    updates = [make_update(i, int(rng.integers(1, 500)), edd[i] * 0.5,
                           seed=seed * 100 + i, dims=(4, 6), m=m)
               for i in rng.permutation(k)]
    got = aggregate_proxies(updates, mode=mode)
    want = reference_aggregate_proxies(updates, mode)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_awpa_permutation_invariance():
    updates = [make_update(i, n, edd, seed=i)
               for i, (n, edd) in enumerate([(2, [1, 0]), (3, [2, 5]),
                                             (5, [0, 1])])]
    p1, b1 = aggregate_proxies(updates, mode="awpa")
    p2, b2 = aggregate_proxies(updates[::-1], mode="awpa")
    assert np.allclose(p1, p2) and np.allclose(b1, b2)


def test_awpa_count_scaling_invariance():
    updates = [make_update(0, 2, [1.0, 2.0], seed=1),
               make_update(1, 3, [3.0, 1.0], seed=2)]
    scaled = [ClientUpdate(client_id=u.client_id, params=u.params,
                           n_samples=u.n_samples, edd=u.edd * 10.0)
              for u in updates]
    p1, _ = aggregate_proxies(updates, mode="awpa")
    p2, _ = aggregate_proxies(scaled, mode="awpa")
    assert np.allclose(p1, p2)


def test_awpa_reduces_to_fedavg_when_counts_track_sizes():
    base = np.array([2.0, 5.0])
    updates = [make_update(0, 2, 2 * base, seed=1),
               make_update(1, 3, 3 * base, seed=2)]
    p_awpa, b_awpa = aggregate_proxies(updates, mode="awpa")
    p_avg, b_avg = aggregate_proxies(updates, mode="fedavg")
    assert np.allclose(p_awpa, p_avg)
    assert np.allclose(b_awpa, b_avg)


def test_aggregated_params_stay_in_convex_hull():
    updates = [make_update(i, int(n), edd, seed=i)
               for i, (n, edd) in enumerate([(1, [1, 2]), (4, [2, 1]),
                                             (2, [3, 3])])]
    agg = aggregate(updates, proxy_mode="awpa")
    stack = np.stack([u.params.proxies for u in updates])
    assert (agg.proxies >= stack.min(axis=0) - 1e-12).all()
    assert (agg.proxies <= stack.max(axis=0) + 1e-12).all()
    w_stack = np.stack([u.params.layers[0][0] for u in updates])
    assert (agg.layers[0][0] >= w_stack.min(axis=0) - 1e-12).all()
    assert (agg.layers[0][0] <= w_stack.max(axis=0) + 1e-12).all()


def test_aggregation_errors_name_the_client():
    good = make_update(0, 2, [1.0, 1.0], seed=1)
    with pytest.raises(AggregationError):
        aggregate([])
    bad_shape = make_update(7, 2, [1.0, 1.0], seed=2, dims=(3, 5))
    with pytest.raises(AggregationError, match="client 7"):
        aggregate([good, bad_shape])
    bad_n = make_update(3, 0, [1.0, 1.0], seed=3)
    with pytest.raises(AggregationError, match="client 3"):
        aggregate([good, bad_n])
    bad_edd = make_update(4, 2, [-1.0, 1.0], seed=4)
    with pytest.raises(AggregationError, match="client 4"):
        aggregate_proxies([good, bad_edd])
    wrong_len = make_update(5, 2, [1.0, 1.0, 1.0], seed=5)
    with pytest.raises(AggregationError, match="client 5"):
        aggregate_proxies([good, wrong_len])


def test_a_repeated_client_id_is_rejected():
    a = make_update(0, 2, [1.0, 1.0], seed=1)
    copy_of_a = ClientUpdate(client_id=0, params=a.params.like(
        a.params.flat.copy()), n_samples=a.n_samples, edd=a.edd.copy())
    b = make_update(1, 2, [1.0, 1.0], seed=2)
    for mode in ("awpa", "fedavg"):
        with pytest.raises(AggregationError,
                           match="client 0: more than one update"):
            aggregate([a, b, copy_of_a], proxy_mode=mode)


def test_aggregate_checks_the_updates_once(monkeypatch):
    calls = []

    def counting(updates):
        calls.append(len(updates))
        return _check_updates(updates)

    monkeypatch.setattr(server, "_check_updates", counting)
    updates = [make_update(i, 2 + i, [1.0, i], seed=i) for i in range(3)]
    aggregate(updates, proxy_mode="awpa")
    assert calls == [3]


def reference_aggregate(updates, proxy_mode):
    """Two-pass aggregation that one weighted average replaced: a sample-
    weighted average of the whole vector, then its proxy layer overwritten
    by the per-class weighted average."""
    def sample_weights(updates):
        counts = np.array([u.n_samples for u in updates], dtype=np.float64)
        return counts / counts.sum()

    def aggregate_features(updates):
        updates = _check_updates(updates)
        w = sample_weights(updates)
        return updates[0].params.like(
            sum(wk * u.params.flat for wk, u in zip(w, updates)))

    def aggregate_proxies(updates, mode="awpa"):
        updates = _check_updates(updates)
        proxy_stack = np.stack([u.params.proxies for u in updates])
        bias_stack = np.stack([u.params.proxy_bias for u in updates])
        q = np.stack([np.asarray(u.edd, dtype=np.float64) for u in updates])
        if mode == "fedavg":
            q[...] = 0.0
        totals = q.sum(axis=0)
        weights = np.where(totals > 0, q / np.where(totals > 0, totals, 1.0),
                           sample_weights(updates)[:, None])
        proxies = np.einsum("km,kmf->mf", weights, proxy_stack)
        proxy_bias = (weights * bias_stack).sum(axis=0)
        return proxies, proxy_bias

    params = aggregate_features(updates)
    params.proxies[...], params.proxy_bias[...] = aggregate_proxies(
        updates, proxy_mode)
    return params


@pytest.mark.parametrize("proxy_mode", ["awpa", "fedavg"])
@pytest.mark.parametrize("task", ["single", "multi"])
def test_aggregate_matches_two_pass_reference_on_trained_updates(task,
                                                                proxy_mode):
    fed = tiny_federation(task=task)
    cfg = quick_client_cfg()
    params = nn.init_params([4, 6], 3, seed=0)
    for r in range(2):
        updates = [local_train(params, data, spec, cfg, r, 0)
                   for spec, data in zip(fed.specs, fed.clients)]
        assert any(u.edd.any() for u in updates)
        params = aggregate(updates, proxy_mode)
        want = reference_aggregate(updates, proxy_mode)
        assert params.flat.tobytes() == want.flat.tobytes()


@pytest.mark.parametrize("proxy_mode", ["awpa", "fedavg"])
@pytest.mark.parametrize("k", [1, 5, 12])
@pytest.mark.parametrize("seed", range(3))
def test_aggregate_matches_two_pass_reference_exactly(proxy_mode, k, seed):
    rng = np.random.default_rng(seed)
    m = 6
    edd = rng.integers(0, 40, size=(k, m)) * (rng.random((k, m)) < 0.6)
    edd[:, rng.integers(m)] = 0  # nobody counted
    updates = []
    for i in rng.permutation(k):
        u = make_update(int(i), int(rng.integers(1, 500)), edd[i] * 0.5,
                        seed=seed * 100 + int(i), dims=(4, 6, 5), m=m)
        u.params.flat[:] = rng.normal(size=u.params.flat.size)
        updates.append(u)
    got = aggregate(updates, proxy_mode)
    want = reference_aggregate(updates, proxy_mode)
    assert got.flat.tobytes() == want.flat.tobytes()


def tiny_federation(seed=0, task="single"):
    return gen_federation(FederationConfig(
        n_clients=2, n_classes=3, classes_per_client=2, feature_dim=4,
        samples_per_client=24, n_val=10, n_test=30, task=task, seed=seed))


def quick_client_cfg():
    return ClientConfig(local_iters=3, batch_size=8, lr=3e-3,
                        ude_batch_size=2)


@pytest.mark.parametrize("mode", ["fedlsm", "fedavg_masked", "fedavg_full"])
def test_run_federation_modes_produce_reports(mode):
    fed = tiny_federation()
    res = run_federation(fed, quick_client_cfg(), rounds=2, mode=mode,
                         seed=0, hidden_dims=(6,))
    assert len(res.reports) == 2
    assert res.reports[0].round == 0
    assert 0.0 <= res.reports[-1].metrics.macro_auc <= 1.0
    assert len(res.reports[0].client_stats) == 2


def test_run_federation_deterministic():
    fed = tiny_federation()
    kw = dict(rounds=2, mode="fedlsm", seed=3, hidden_dims=(6,))
    a = run_federation(fed, quick_client_cfg(), **kw)
    b = run_federation(fed, quick_client_cfg(), **kw)
    assert np.array_equal(a.params.proxies, b.params.proxies)
    assert a.reports[-1].metrics.as_dict() == b.reports[-1].metrics.as_dict()


def test_run_federation_rejects_bad_mode_and_rounds():
    fed = tiny_federation()
    with pytest.raises(ConfigError, match="mode"):
        run_federation(fed, quick_client_cfg(), rounds=1, mode="blend",
                       seed=0)
    with pytest.raises(ConfigError, match="rounds"):
        run_federation(fed, quick_client_cfg(), rounds=0, mode="fedlsm",
                       seed=0)


def test_reports_carry_the_client_lr_schedule():
    cfg = ClientConfig(local_iters=0, lr=0.01, lr_decay=0.5)
    res = run_federation(tiny_federation(), cfg, rounds=3,
                         mode="fedavg_masked", seed=0, hidden_dims=(6,))
    assert [r.lr for r in res.reports] == [0.01, 0.01 / 1.5, 0.01 / 2.0]
    assert [r.lr for r in res.reports] == [cfg.lr_at(t) for t in range(3)]


def test_run_federation_on_round_callback():
    fed = tiny_federation()
    seen = []
    run_federation(fed, quick_client_cfg(), rounds=2, mode="fedavg_masked",
                   seed=0, hidden_dims=(6,),
                   on_round=lambda rep, params: seen.append(rep.round))
    assert seen == [0, 1]


def test_evaluate_requires_data():
    params = nn.init_params([4, 6], 3, seed=0)
    with pytest.raises(ConfigError):
        evaluate(params, EvalSet(x=np.zeros((0, 3)), truth=np.zeros((0, 2))),
                 "single")


def test_evaluate_rejects_an_unknown_task():
    params = nn.init_params([4, 6], 3, seed=0)
    data = EvalSet(x=np.ones((4, 4)), truth=np.eye(3)[[0, 1, 2, 1]])
    for task in ("Single", "singel"):
        with pytest.raises(ConfigError, match=f"task: must be 'single' or "
                                              f"'multi', got {task!r}"):
            evaluate(params, data, task)


def test_multi_label_fedlsm_when_a_client_identifies_every_class():
    fed = gen_federation(FederationConfig(
        n_clients=2, n_classes=3, classes_per_client=3, feature_dim=4,
        samples_per_client=24, n_val=10, n_test=30, task="multi", seed=0))
    assert all(spec.unknown == () for spec in fed.specs)
    res = run_federation(fed, quick_client_cfg(), rounds=1, mode="fedlsm",
                         seed=0, hidden_dims=(6,))
    assert len(res.reports) == 1
    assert np.isfinite(res.reports[0].metrics.macro_auc)
