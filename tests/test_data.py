"""Synthetic federations, label masking, augmentation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm

from fedlsm import data
from fedlsm.data import (COVERAGE_ATTEMPTS, AugmentConfig, ClientSpec,
                         EvalSet, Federation, FederationConfig,
                         _class_directions, augment_strong_batch,
                         augment_weak_batch, gen_federation, mask_labels,
                         ndtri, unmask_labels)
from fedlsm.errors import ConfigError


def tiny_cfg(**kw):
    base = dict(n_clients=3, n_classes=5, classes_per_client=3, feature_dim=8,
                samples_per_client=40, n_val=20, n_test=30, seed=1)
    base.update(kw)
    return FederationConfig(**base)


def test_federation_shapes_and_coverage():
    cfg = tiny_cfg()
    fed = gen_federation(cfg)
    assert len(fed.clients) == 3
    assert all(len(c) == 40 for c in fed.clients)
    assert len(fed.val) == 20 and len(fed.test) == 30
    covered = set()
    for spec in fed.specs:
        assert len(spec.identified) == 3
        assert set(spec.identified) | set(spec.unknown) == set(range(5))
        assert not set(spec.identified) & set(spec.unknown)
        covered.update(spec.identified)
    assert covered == set(range(5))


def test_federation_deterministic_per_seed():
    a = gen_federation(tiny_cfg(seed=5))
    b = gen_federation(tiny_cfg(seed=5))
    c = gen_federation(tiny_cfg(seed=6))
    assert np.array_equal(a.clients[0].x[0], b.clients[0].x[0])
    assert np.array_equal(a.test.truth[3], b.test.truth[3])
    assert not np.array_equal(a.clients[0].x[0], c.clients[0].x[0])


def test_coverage_unsatisfiable():
    with pytest.raises(ConfigError, match="coverage"):
        gen_federation(tiny_cfg(n_clients=2, classes_per_client=2,
                                n_classes=5))


def test_every_spec_carries_the_federation_task():
    for task in ("single", "multi"):
        fed = gen_federation(tiny_cfg(task=task))
        assert [spec.task for spec in fed.specs] == [task] * 3


def test_client_spec_rejects_an_unknown_task():
    with pytest.raises(ConfigError, match="client 4: task"):
        ClientSpec(client_id=4, identified=(0,), unknown=(1,), task="triple")


def test_single_label_masking_rules():
    fed = gen_federation(tiny_cfg())
    for spec, dataset, truth in zip(fed.specs, fed.clients, fed.truth):
        for values, known_mask, true_label in zip(dataset.values,
                                                  dataset.known, truth):
            true_class = int(np.argmax(true_label))
            if true_class in spec.identified:
                assert known_mask.all()
                assert np.array_equal(values, true_label)
            else:
                assert not known_mask.any()
                assert (values == 0).all()


def test_multi_label_masking_rules():
    fed = gen_federation(tiny_cfg(task="multi"))
    for spec, dataset, truth in zip(fed.specs, fed.clients, fed.truth):
        ident = np.zeros(5, dtype=bool)
        ident[list(spec.identified)] = True
        for values, known_mask, true_label in zip(dataset.values,
                                                  dataset.known, truth):
            assert np.array_equal(known_mask, ident)
            assert np.array_equal(values[ident], true_label[ident])
            assert (values[~ident] == 0).all()


def test_mask_oracle_case():
    spec = ClientSpec(client_id=0, identified=(0, 2), unknown=(1, 3),
                      task="multi")
    truth = np.array([1.0, 1.0, 0.0, 1.0])
    out = mask_labels(np.zeros((1, 2)), truth[None], spec)
    assert np.array_equal(out.values[0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(out.known[0], [True, False, True, False])


def test_mask_labels_does_not_mutate_input():
    spec = ClientSpec(client_id=0, identified=(0,), unknown=(1,),
                      task="multi")
    truth = np.array([[0.0, 1.0]])
    original = truth.copy()
    masked = mask_labels(np.zeros((1, 2)), truth, spec)
    assert np.array_equal(truth, original)
    masked.values[0, 0] = 7.0
    assert truth[0, 0] == 0.0


def test_unmask_restores_full_labels():
    fed = gen_federation(tiny_cfg())
    restored = unmask_labels(fed.clients[0].x, fed.truth[0])
    assert restored.known.all()
    assert np.array_equal(restored.values, fed.truth[0])
    assert restored.values is not fed.truth[0]


def test_single_label_cluster_separation():
    cfg = tiny_cfg(n_classes=3, classes_per_client=2, cluster_sep=6.0,
                   n_test=1500, feature_dim=8)
    fed = gen_federation(cfg)
    xs = fed.test.x
    classes = fed.test.truth.argmax(axis=1)
    means = np.stack([xs[classes == c].mean(axis=0) for c in range(3)])
    for a in range(3):
        for b in range(a + 1, 3):
            dist = np.linalg.norm(means[a] - means[b])
            assert dist == pytest.approx(6.0, abs=0.5)


def test_multi_label_positive_rate():
    cfg = tiny_cfg(task="multi", positive_rate=0.3, n_test=2000)
    fed = gen_federation(cfg)
    truths = fed.test.truth
    rate = truths.mean()
    assert 0.2 < rate < 0.4


def test_multi_label_threshold_is_the_normal_quantile(monkeypatch):
    # ndtri stands in for scipy.stats.norm.ppf, which costs most of the
    # package's import time.  At 0.3, the benchmark's rate, the bits are
    # SciPy's; at every rate the federation is.
    assert data.ndtri(0.7).tobytes() == norm.ppf(0.7).tobytes()
    rates = (0.3, 0.013, 0.9, 0.1, 0.25, 0.5, 0.7, 0.05, 0.99, 0.001)
    for rate in rates:
        # 10,000 test rows give rate 0.001 about ten positives per class.
        cfg = tiny_cfg(task="multi", positive_rate=rate, n_test=10_000)
        fed = gen_federation(cfg)
        with monkeypatch.context() as m:
            m.setattr(data, "ndtri", norm.ppf)
            ref = gen_federation(cfg)
        assert fed.val.truth.tobytes() == ref.val.truth.tobytes()
        assert fed.test.truth.tobytes() == ref.test.truth.tobytes()
        for k, (got, want) in enumerate(zip(fed.clients, ref.clients)):
            assert got.values.tobytes() == want.values.tobytes()
            assert fed.truth[k].tobytes() == ref.truth[k].tobytes()


def assert_near_scipy(p):
    # SciPy stays a test dependency only, as the reference.  AS241 and
    # Cephes round apart by up to 7 ulp; 16 ulp is the promise.
    got, want = data.ndtri(p), special.ndtri(p)
    assert isinstance(got, np.float64)
    assert abs(got - want) <= 16 * np.spacing(abs(want)), (p, got, want)


@settings(max_examples=500, deadline=None)
@given(p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_ndtri_matches_scipy_bits(p):
    assert_near_scipy(p)


# Each branch point of Cephes' ndtri, and its neighbours 1 ulp away.
@pytest.mark.parametrize("edge", [math.exp(-2), 1.0 - math.exp(-2),
                                  math.exp(-32), 0.5, 1e-300])
def test_ndtri_matches_scipy_on_both_sides_of_each_branch(edge):
    for p in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
        assert_near_scipy(float(p))


def test_ndtri_is_infinite_at_the_ends():
    assert data.ndtri(1.0) == math.inf
    assert data.ndtri(0.0) == -math.inf


def test_a_rate_that_rounds_to_zero_leaves_the_test_set_unscorable():
    # 1 - 1e-17 rounds to 1.0, so the threshold is +inf and no row is
    # positive: the test-set check refuses it, no math domain error.
    with pytest.raises(ConfigError, match="^federation.n_test: "):
        gen_federation(tiny_cfg(task="multi", positive_rate=1e-17))


def test_augment_determinism_and_scale():
    x = np.linspace(-1, 1, 10).reshape(2, 5)
    cfg = AugmentConfig()

    def weak(seed):
        return augment_weak_batch(x, np.random.default_rng(seed), cfg)

    def strong(seed):
        return augment_strong_batch(x, np.random.default_rng(seed), cfg)

    w1 = weak(3)
    assert np.array_equal(w1, weak(3))
    assert np.linalg.norm(w1 - x) < 0.5
    s1 = strong(3)
    assert np.array_equal(s1, strong(3))
    assert not np.array_equal(s1, strong(4))
    assert np.linalg.norm(s1 - x) > np.linalg.norm(w1 - x)


def test_federation_config_validation():
    with pytest.raises(ConfigError, match="n_clients"):
        tiny_cfg(n_clients=1).validate()
    with pytest.raises(ConfigError, match="task"):
        tiny_cfg(task="triple").validate()
    with pytest.raises(ConfigError, match="classes_per_client"):
        tiny_cfg(classes_per_client=9).validate()


@pytest.mark.parametrize("field,value", [("n_val", -1), ("n_test", -1),
                                         ("n_test", 0)])
def test_federation_config_rejects_bad_eval_sizes(field, value):
    with pytest.raises(ConfigError, match=f"^federation.{field}: need"):
        tiny_cfg(**{field: value}).validate()


@pytest.mark.parametrize("field,value", [
    ("cluster_std", math.nan), ("cluster_std", math.inf), ("cluster_std", -1.0),
    ("cluster_std", 0.0), ("cluster_sep", math.nan), ("cluster_sep", math.inf),
    ("cluster_sep", -0.5)])
def test_federation_config_rejects_bad_cluster_geometry(field, value):
    with pytest.raises(ConfigError, match=f"^federation.{field}: need"):
        tiny_cfg(**{field: value}).validate()


@pytest.mark.parametrize("std,sep", [(1.0, 0.0), (1.0, 2.5), (1.0, 4.0),
                                     (1.0, 6.0), (0.5, 1e6)])
def test_federation_config_accepts_finite_cluster_geometry(std, sep):
    tiny_cfg(cluster_std=std, cluster_sep=sep).validate()


@pytest.mark.parametrize("n_test,seed", [(1, 1), (2, 2), (2, 5)])
def test_unscorable_test_set_is_a_config_error(n_test, seed):
    # Three classes, two test rows: some seeds draw one class twice, so
    # no static bound on n_test tells whether a macro AUC exists.
    small = dict(n_clients=2, n_classes=3, classes_per_client=2,
                 feature_dim=4, samples_per_client=20, n_val=10)
    with pytest.raises(ConfigError, match="^federation.n_test: "):
        gen_federation(tiny_cfg(n_test=n_test, seed=seed, **small))
    fed = gen_federation(tiny_cfg(n_test=2, seed=0, **small))
    assert len(fed.test) == 2


def test_the_test_set_check_draws_no_random_numbers(monkeypatch):
    # The test set is the last draw; the check after it reads labels
    # only, so the generator ends where that draw left it.
    rngs, states = [], []
    make_rng, make_set = np.random.default_rng, data.EvalSet

    def spy_rng(seed):
        rngs.append(make_rng(seed))
        return rngs[-1]

    def spy_set(**arrays):
        states.append(rngs[-1].bit_generator.state)
        return make_set(**arrays)

    monkeypatch.setattr(np.random, "default_rng", spy_rng)
    monkeypatch.setattr(data, "EvalSet", spy_set)
    fed = gen_federation(tiny_cfg())
    assert len(rngs) == 1 and len(states) == 3 + 2  # clients, val, test
    assert rngs[0].bit_generator.state == states[-1]
    assert len(fed.test) == 30


@pytest.mark.parametrize("field,value", [("sigma_weak", -1.0),
                                         ("sigma_strong", -0.1),
                                         ("scale_jitter", -3.0),
                                         ("drop_prob", -0.1),
                                         ("drop_prob", 1.0),
                                         ("drop_prob", 2.0)])
def test_augment_config_validation(field, value):
    with pytest.raises(ConfigError, match=f"^client.augment: .*{field}"):
        AugmentConfig(**{field: value}).validate()
    AugmentConfig(**{field: 0.0}).validate()


@pytest.mark.parametrize("field", ["sigma_weak", "sigma_strong",
                                   "scale_jitter"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_augment_config_rejects_non_finite_scales(field, value):
    with pytest.raises(ConfigError, match=f"^client.augment: {field}"):
        AugmentConfig(**{field: value}).validate()


# ------------------------------------ one draw closure vs the parent's helpers
#
# reference_gen_federation is generation as it was before each task drew
# in one closure: two forwarding draw helpers, _class_directions called in
# each task branch, and a coverage precheck inside _sample_identified_sets.
# It and its helpers are kept verbatim.  Generation must give the same
# arrays and specs byte for byte, and refuse the same configs.

def _reference_sample_identified_sets(cfg: FederationConfig,
                                      rng: np.random.Generator
                                      ) -> list[tuple[int, ...]]:
    # Resample the whole assignment until every class is identified somewhere.
    if cfg.classes_per_client * cfg.n_clients < cfg.n_classes:
        raise ConfigError("class coverage unsatisfiable: "
                          f"{cfg.n_clients} clients x {cfg.classes_per_client} "
                          f"classes cannot cover {cfg.n_classes} classes")
    for _ in range(COVERAGE_ATTEMPTS):
        sets = [tuple(sorted(rng.choice(cfg.n_classes, cfg.classes_per_client,
                                        replace=False).tolist()))
                for _ in range(cfg.n_clients)]
        covered = set()
        for s in sets:
            covered.update(s)
        if len(covered) == cfg.n_classes:
            return sets
    raise ConfigError("class coverage unsatisfiable: resampling budget exhausted")


def _reference_draw_single_label(n: int, centers: np.ndarray,
                                 cfg: FederationConfig,
                                 rng: np.random.Generator) -> EvalSet:
    classes = rng.integers(0, cfg.n_classes, size=n)
    xs = centers[classes] + cfg.cluster_std * rng.standard_normal((n, cfg.feature_dim))
    truth = np.zeros((n, cfg.n_classes))
    truth[np.arange(n), classes] = 1.0
    return EvalSet(x=xs, truth=truth)


def _reference_draw_multi_label(n: int, directions: np.ndarray,
                                threshold: float, cfg: FederationConfig,
                                rng: np.random.Generator) -> EvalSet:
    xs = rng.standard_normal((n, cfg.feature_dim))
    projections = xs @ directions.T
    return EvalSet(x=xs,
                   truth=(projections >= threshold).astype(np.float64))


def reference_gen_federation(cfg: FederationConfig) -> Federation:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    identified_sets = _reference_sample_identified_sets(cfg, rng)
    specs = []
    for k, ident in enumerate(identified_sets):
        unknown = tuple(c for c in range(cfg.n_classes) if c not in ident)
        specs.append(ClientSpec(client_id=k, identified=ident,
                                unknown=unknown, task=cfg.task))

    if cfg.task == "single":
        centers = _class_directions(cfg.n_classes, cfg.feature_dim, rng)
        # Orthonormal rows scaled so pairwise center distance = cluster_sep * std.
        centers = centers * (cfg.cluster_sep * cfg.cluster_std / np.sqrt(2.0))

        def draw(n):
            return _reference_draw_single_label(n, centers, cfg, rng)
    else:
        directions = _class_directions(cfg.n_classes, cfg.feature_dim, rng)
        # AS241's normal quantile: +inf when 1 - rate rounds to 1.0, so
        # no row is positive and the test-set check below refuses it.
        threshold = ndtri(1.0 - cfg.positive_rate)

        def draw(n):
            return _reference_draw_multi_label(n, directions, threshold, cfg,
                                               rng)

    full = [draw(cfg.samples_per_client) for _ in specs]
    clients = [mask_labels(f.x, f.truth, spec)
               for f, spec in zip(full, specs)]
    val = draw(cfg.n_val)
    test = draw(cfg.n_test)
    if not (test.truth.min(axis=0) < test.truth.max(axis=0)).any():
        raise ConfigError(f"federation.n_test: {cfg.n_test} test samples "
                          "leave no class with both positives and "
                          "negatives, so no macro AUC can be scored")
    return Federation(specs=specs, clients=clients,
                      truth=[f.truth for f in full], val=val, test=test,
                      config=cfg)


def federation_arrays(fed: Federation) -> list:
    """Every array of fed, each as (dtype, shape, bytes)."""
    arrays = [fed.val.x, fed.val.truth, fed.test.x, fed.test.truth, *fed.truth]
    for client in fed.clients:
        arrays += [client.x, client.values, client.known]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def build(gen, cfg):
    """gen(cfg), or the type and message of the ConfigError it raises."""
    try:
        return gen(cfg)
    except ConfigError as e:
        return type(e), str(e)


# (n_clients, classes_per_client) pairs; the ones whose product is below
# n_classes cannot cover every class.
ASSIGNMENTS = [(2, 1), (3, 2), (5, 3), (5, 8)]


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("n_classes", [2, 3, 7, 20])
def test_generation_matches_the_parent_byte_for_byte(task, n_classes):
    # feature_dim 1 and 4 put n_classes > dim (random unit rows) beside
    # the orthonormal branch; n_val 0 draws an empty validation set.
    built = refused = 0
    for dim, n_val, seed, (n_clients, per_client) in itertools.product(
            (1, 4, 16), (0, 7), range(3), ASSIGNMENTS):
        cfg = FederationConfig(
            n_clients=n_clients, n_classes=n_classes,
            classes_per_client=min(per_client, n_classes), feature_dim=dim,
            task=task, samples_per_client=9, n_val=n_val, n_test=12,
            seed=seed)
        got = build(gen_federation, cfg)
        want = build(reference_gen_federation, cfg)
        if isinstance(want, Federation):
            built += 1
            assert isinstance(got, Federation), (cfg, got)
            assert got.specs == want.specs
            assert federation_arrays(got) == federation_arrays(want)
        elif "coverage" in want[1]:
            refused += 1
            assert got[0] is want[0] and "coverage" in got[1]
        else:
            assert got == want
    assert built and (refused or n_classes == 2)
