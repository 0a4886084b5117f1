"""Acceptance gates.

Fast numeric property suites plus a desk-scale experiment checking the
qualitative claims: training with pseudo labels and class-weighted proxy
aggregation beats plain averaging under label-set mismatch, and removing
either major component costs accuracy.  Each gate prints one PASS/FAIL
line with its measured values.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from fedlsm import nn
from fedlsm.client import ClientConfig, ClientUpdate, loss_identified
from fedlsm.cli import run_gradcheck
from fedlsm.data import AugmentConfig, FederationConfig, gen_federation
from fedlsm.metrics import roc_auc
from fedlsm.server import aggregate_proxies, run_federation
from fedlsm.uncertainty import entropy_multi, entropy_single, partition

SEEDS = (0, 1, 2)
ROUNDS = 30

EXPERIMENT_FEDERATION = FederationConfig(
    n_clients=5, n_classes=7, classes_per_client=3, feature_dim=16,
    samples_per_client=500, n_val=500, n_test=1000, cluster_sep=2.5,
    cluster_std=1.0, seed=0)

# Confidence thresholds and the MixUp loss weight stay at their defaults;
# the optimizer and augmentation knobs are scaled to this data size.
EXPERIMENT_CLIENT = ClientConfig(
    lr=3e-3, local_iters=30, batch_size=64, frac_l=0.5, frac_h=0.2,
    ude_batch_size=8,
    augment=AugmentConfig(sigma_weak=0.02, sigma_strong=0.6,
                          scale_jitter=0.2, drop_prob=0.1))


def announce(capsys, name, ok, detail):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def final_auc(client_cfg, mode, seed, proxy=None, collect=None):
    fed = gen_federation(replace(EXPERIMENT_FEDERATION, seed=seed))
    res = run_federation(fed, client_cfg, rounds=ROUNDS, mode=mode,
                         seed=seed, proxy_mode=proxy)
    if collect is not None:
        collect.extend(res.reports)
    return res.reports[-1].metrics.macro_auc


@pytest.fixture(scope="module")
def experiment():
    """All experiment arms, run once and shared across the slow gates."""
    arms = {}
    timings = {}
    plan = {
        "full": dict(mode="fedavg_full"),
        "fedlsm": dict(mode="fedlsm"),
        "masked": dict(mode="fedavg_masked"),
        "no_mix": dict(mode="fedlsm", ude_weight=0.0),
        "no_weighted_proxies": dict(mode="fedlsm", proxy="fedavg"),
    }
    reports = {}
    for name, spec in plan.items():
        cfg = EXPERIMENT_CLIENT
        if "ude_weight" in spec:
            cfg = replace(cfg, ude_weight=spec["ude_weight"])
        t0 = time.time()
        collected = []
        aucs = [final_auc(cfg, spec["mode"], s, proxy=spec.get("proxy"),
                          collect=collected if s == SEEDS[0] else None)
                for s in SEEDS]
        timings[name] = time.time() - t0
        arms[name] = float(np.mean(aucs))
        reports[name] = collected
    return {"mean_auc": arms, "timings": timings, "reports": reports}


def test_gradients_match_finite_differences(capsys):
    t0 = time.time()
    nets = 24
    worst = run_gradcheck(nets=nets, eps=1e-5, seed=0)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    announce(capsys, "gradient oracle", ok,
             f"worst rel err {worst:.2e} < 1e-4 over {nets} nets, "
             f"{elapsed:.1f}s < 10s")


def random_updates(rng, k=None, m=None, f=None, edd=None):
    k = k or int(rng.integers(1, 6))
    m = m or int(rng.integers(2, 6))
    f = f or int(rng.integers(2, 7))
    updates = []
    for i in range(k):
        params = nn.ModelParams.from_arrays(
            layers=[(rng.normal(size=(3, f)), rng.normal(size=f))],
            proxies=rng.normal(size=(m, f)), proxy_bias=rng.normal(size=m))
        q = edd[i] if edd is not None else rng.integers(0, 20, size=m)
        updates.append(ClientUpdate(
            client_id=i, params=params,
            n_samples=int(rng.integers(1, 50)),
            edd=np.asarray(q, dtype=np.float64)))
    return updates


def test_proxy_aggregation_algebra(capsys):
    t0 = time.time()
    cases = 1000
    rng = np.random.default_rng(42)

    for _ in range(cases):  # normalization: shared proxies are a fixed point
        updates = random_updates(rng)
        shared = rng.normal(size=updates[0].params.proxies.shape)
        shared_bias = rng.normal(size=updates[0].params.proxy_bias.shape)
        for u in updates:
            u.params.proxies[...] = shared
            u.params.proxy_bias[...] = shared_bias
        proxies, bias = aggregate_proxies(updates, mode="awpa")
        assert np.allclose(proxies, shared, atol=1e-12)
        assert np.allclose(bias, shared_bias, atol=1e-12)

    for _ in range(cases):  # convex hull containment, entry by entry
        updates = random_updates(rng)
        proxies, bias = aggregate_proxies(updates, mode="awpa")
        stack = np.stack([u.params.proxies for u in updates])
        assert (proxies >= stack.min(axis=0) - 1e-12).all()
        assert (proxies <= stack.max(axis=0) + 1e-12).all()

    for _ in range(cases):  # permutation invariance
        updates = random_updates(rng, k=int(rng.integers(2, 6)))
        p1, b1 = aggregate_proxies(updates, mode="awpa")
        perm = list(rng.permutation(len(updates)))
        p2, b2 = aggregate_proxies([updates[i] for i in perm], mode="awpa")
        assert np.allclose(p1, p2, atol=1e-12)
        assert np.allclose(b1, b2, atol=1e-12)

    for _ in range(cases):  # common count scaling changes nothing
        updates = random_updates(rng)
        p1, _ = aggregate_proxies(updates, mode="awpa")
        scale = float(rng.uniform(0.1, 100.0))
        for u in updates:
            u.edd = u.edd * scale
        p2, _ = aggregate_proxies(updates, mode="awpa")
        assert np.allclose(p1, p2, atol=1e-10)

    for _ in range(cases):  # counts proportional to sizes: same as averaging
        k = int(rng.integers(1, 6))
        m = int(rng.integers(2, 6))
        updates = random_updates(rng, k=k, m=m)
        base = rng.uniform(0.5, 3.0, size=m)
        for u in updates:
            u.edd = u.n_samples * base
        p_w, b_w = aggregate_proxies(updates, mode="awpa")
        p_a, b_a = aggregate_proxies(updates, mode="fedavg")
        assert np.allclose(p_w, p_a, atol=1e-10)
        assert np.allclose(b_w, b_a, atol=1e-10)

    elapsed = time.time() - t0
    ok = elapsed < 5.0
    announce(capsys, "aggregation algebra", ok,
             f"5 properties x {cases} cases, {elapsed:.1f}s < 5s")


def test_entropy_and_partition_invariants(capsys):
    t0 = time.time()
    datasets = 500
    rng = np.random.default_rng(7)
    for _ in range(datasets):
        m = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0))
        h = entropy_single(probs)
        assert 0.0 <= h <= np.log(m) + 1e-12
        assert entropy_single(np.full(m, 1.0 / m)) >= h - 1e-12
        sig = rng.random(m)
        unknown = sorted(rng.choice(m, int(rng.integers(1, m + 1)),
                                    replace=False).tolist())
        hm = entropy_multi(sig, unknown)
        assert 0.0 <= hm <= 1.0
        assert entropy_multi(np.full(m, 0.5), unknown) == pytest.approx(1.0)

        n = int(rng.integers(3, 31))
        d = int(rng.integers(2, 6))
        params = nn.init_params([d, 5], m, seed=int(rng.integers(2 ** 31)))
        xs = np.stack([rng.normal(size=d) for _ in range(n)])
        frac_l = float(rng.uniform(0, 0.6))
        frac_h = float(rng.uniform(0, 1.0 - frac_l))
        part = partition(xs, params, "single", tuple(unknown),
                         frac_l, frac_h)
        n_l = int(round(frac_l * n))
        n_h = min(int(round(frac_h * n)), n - n_l)
        assert (len(part.low), len(part.high)) == (n_l, n_h)
        assert len(part.mid) == n - n_l - n_h
        all_idx = np.concatenate([part.low, part.mid, part.high])
        assert sorted(all_idx.tolist()) == list(range(n))  # disjoint cover
        scores = part.entropy
        if len(part.low) and len(part.mid):
            assert scores[part.low].max() <= scores[part.mid].min() + 1e-15
        if len(part.mid) and len(part.high):
            assert scores[part.mid].max() <= scores[part.high].min() + 1e-15
        if len(part.low) and len(part.high):
            assert scores[part.low].max() <= scores[part.high].min() + 1e-15
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    announce(capsys, "entropy and partition invariants", ok,
             f"{datasets} random datasets, {elapsed:.1f}s < 5s")


def test_unknown_labels_cannot_leak_into_supervised_loss(capsys):
    cases = 200
    rng = np.random.default_rng(13)
    for _ in range(cases):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        params = nn.init_params([d, 4], m, seed=int(rng.integers(2 ** 31)))
        batch = rng.normal(size=(n, d))

        # multi-label: masked classes must get exactly zero proxy gradient
        known = rng.random((n, m)) < 0.6
        values = np.where(known, (rng.random((n, m)) < 0.5).astype(float), 0.0)
        cache = nn.forward(params, batch)
        _, dlogits = loss_identified(cache.logits, values, known, "multi")
        grads = nn.backward(params, cache, dlogits)
        fully_unknown = ~known.any(axis=0)
        assert (grads.proxies[fully_unknown] == 0.0).all()
        assert (grads.proxy_bias[fully_unknown] == 0.0).all()
        assert (dlogits[~known] == 0.0).all()

        # single-label: unlabeled rows contribute nothing
        labeled_mask = rng.random(n) < 0.5
        svalues = np.zeros((n, m))
        sknown = np.zeros((n, m), dtype=bool)
        for i in range(n):
            one_hot = np.zeros(m)
            one_hot[int(rng.integers(m))] = 1.0
            if labeled_mask[i]:
                svalues[i] = one_hot
                sknown[i] = True
        loss_a, dl = loss_identified(cache.logits, svalues, sknown, "single")
        assert (dl[~labeled_mask] == 0.0).all()
        poked = cache.logits.copy()
        poked[~labeled_mask] += rng.normal(size=(int((~labeled_mask).sum()), m)) * 10
        loss_b, _ = loss_identified(poked, svalues, sknown, "single")
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
    announce(capsys, "supervised-loss leak freedom", True,
             f"{cases} random batches, unknown-class gradients exactly zero")


def test_mismatch_experiment_ordering(capsys, experiment):
    auc = experiment["mean_auc"]
    t = sum(experiment["timings"][k] for k in ("full", "fedlsm", "masked"))
    gap = auc["fedlsm"] - auc["masked"]
    ok = (auc["full"] > auc["fedlsm"] > auc["masked"] and gap >= 0.02
          and t < 300.0)
    announce(capsys, "mismatch experiment ordering", ok,
             f"full {auc['full']:.4f} > fedlsm {auc['fedlsm']:.4f} > "
             f"masked {auc['masked']:.4f}, gap {gap:+.4f} >= 0.02, "
             f"{t:.0f}s < 300s")


def test_component_ablations_degrade(capsys, experiment):
    auc = experiment["mean_auc"]
    t = sum(experiment["timings"].values())
    ok = (auc["no_mix"] < auc["fedlsm"]
          and auc["no_weighted_proxies"] < auc["fedlsm"] and t < 900.0)
    announce(capsys, "ablation direction", ok,
             f"fedlsm {auc['fedlsm']:.4f}, without MixUp branch "
             f"{auc['no_mix']:.4f}, without weighted proxies "
             f"{auc['no_weighted_proxies']:.4f}, {t:.0f}s < 900s")


def serialize_reports(reports):
    return "\n".join(json.dumps(r.as_dict(), sort_keys=True,
                                separators=(",", ":")) for r in reports)


def test_repeated_run_is_byte_identical(capsys, experiment):
    first = serialize_reports(experiment["reports"]["fedlsm"])
    again = []
    final_auc(EXPERIMENT_CLIENT, "fedlsm", SEEDS[0], collect=again)
    second = serialize_reports(again)
    ok = first == second and len(first) > 0
    announce(capsys, "deterministic reports", ok,
             f"two runs, {len(first)} serialized bytes, identical={ok}")


def test_auc_matches_brute_force_exactly(capsys):
    cases = 200
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(cases):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = (sum(1.0 for p in pos for q in neg if p > q)
                 + sum(0.5 for p in pos for q in neg if p == q)) \
            / (len(pos) * len(neg))
        assert roc_auc(scores, labels) == brute
        checked += 1
    announce(capsys, "rank AUC oracle", True,
             f"{checked} random sets match pairwise counting exactly")
