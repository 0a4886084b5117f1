"""Synthetic federations, label masking, augmentation, CSV round trips."""

import numpy as np
import pytest

from fedlsm.data import (AugmentConfig, ClientSpec, FederationConfig,
                         augment_strong, augment_weak, gen_federation,
                         load_csv, mask_labels, save_csv, unmask_labels)
from fedlsm.errors import ConfigError, ParseError


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
                      n_samples=1)
    truth = np.array([1.0, 1.0, 0.0, 1.0])
    out = mask_labels(np.zeros((1, 2)), truth[None], spec, "multi")
    assert np.array_equal(out.values[0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(out.known[0], [True, False, True, False])


def test_mask_labels_does_not_mutate_input():
    spec = ClientSpec(client_id=0, identified=(0,), unknown=(1,), n_samples=1)
    truth = np.array([[0.0, 1.0]])
    original = truth.copy()
    masked = mask_labels(np.zeros((1, 2)), truth, spec, "multi")
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


def test_augment_determinism_and_scale():
    x = np.linspace(-1, 1, 10)
    cfg = AugmentConfig()
    w1 = augment_weak(x, seed=3, cfg=cfg)
    w2 = augment_weak(x, seed=3, cfg=cfg)
    assert np.array_equal(w1, w2)
    assert np.linalg.norm(w1 - x) < 0.5
    s1 = augment_strong(x, seed=3, cfg=cfg)
    s2 = augment_strong(x, seed=4, cfg=cfg)
    assert not np.array_equal(s1, s2)
    assert np.linalg.norm(s1 - x) > np.linalg.norm(w1 - x)


def test_csv_roundtrip(tmp_path):
    fed = gen_federation(tiny_cfg())
    path = tmp_path / "client0.csv"
    a = fed.clients[0]
    save_csv(str(path), a.x, a.values, a.known, fed.truth[0])
    b, truth = load_csv(str(path))
    assert len(b) == len(a)
    assert np.array_equal(a.x, b.x)  # repr round-trips floats exactly
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.known, b.known)
    assert np.array_equal(fed.truth[0], truth)


def test_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,y0,mask0,true0\n0.5,1,1,1\n0.5,1,1\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3"):
        load_csv(str(path))
    path.write_text("x0,y0,mask0,true0\nnotafloat,1,1,1\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2"):
        load_csv(str(path))
    path.write_text("a,b\n")
    with pytest.raises(ParseError, match="header"):
        load_csv(str(path))


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    data, truth = load_csv(str(path))
    assert len(data) == 0 and truth.size == 0


def test_federation_config_validation():
    with pytest.raises(ConfigError, match="n_clients"):
        tiny_cfg(n_clients=1).validate()
    with pytest.raises(ConfigError, match="task"):
        tiny_cfg(task="triple").validate()
    with pytest.raises(ConfigError, match="classes_per_client"):
        tiny_cfg(classes_per_client=9).validate()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_features(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,y0,mask0,true0\n0.5,1,1,1\n{cell},1,1,1\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3: non-finite"):
        load_csv(str(path))


@pytest.mark.parametrize("cell", ["2", "-1"])
def test_csv_rejects_mask_cells_other_than_0_or_1(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,y0,mask0,true0\n0.5,1,{cell},1\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2: mask"):
        load_csv(str(path))
