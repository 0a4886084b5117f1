"""Config parsing, validation paths, overrides, fingerprints."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlsm.config import (apply_overrides, config_from_dict, data_fingerprint,
                           load_config)
from fedlsm.data import gen_federation
from fedlsm.errors import ConfigError, ParseError


def minimal():
    return {"version": 1}


def test_defaults_build_and_validate():
    cfg = config_from_dict(minimal())
    assert cfg.mode == "fedlsm"
    assert cfg.rounds == 50
    assert cfg.client.tau == 0.95
    assert cfg.client.ema_decay == 0.999
    assert cfg.client.lr == pytest.approx(1e-4)
    assert cfg.federation.n_clients == 5


def test_version_checked():
    with pytest.raises(ConfigError, match="version"):
        config_from_dict({"version": 2})


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigError, match="config.rounds_total"):
        config_from_dict({"version": 1, "rounds_total": 10})
    with pytest.raises(ConfigError, match="federation.n_client"):
        config_from_dict({"version": 1, "federation": {"n_client": 3}})
    with pytest.raises(ConfigError, match="client.tau_x"):
        config_from_dict({"version": 1, "client": {"tau_x": 0.5}})
    with pytest.raises(ConfigError, match="client.augment.sigma"):
        config_from_dict({"version": 1,
                          "client": {"augment": {"sigma": 0.1}}})
    # task: the federation's task alone decides
    for removed in ("pseudo_loss_norm", "class_weights", "use_pseudo",
                    "adam_beta1", "adam_beta2", "adam_eps", "task"):
        with pytest.raises(ConfigError, match=f"client.{removed}: unknown"):
            config_from_dict({"version": 1, "client": {removed: None}})


def test_type_errors_name_their_path():
    with pytest.raises(ConfigError, match="client.lr"):
        config_from_dict({"version": 1, "client": {"lr": "fast"}})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"version": 1, "seeds": [0.5]})
    with pytest.raises(ConfigError, match="federation.n_clients"):
        config_from_dict({"version": 1, "federation": {"n_clients": 2.5}})


def test_semantic_validation():
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"version": 1, "seeds": [1, 1]})
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict({"version": 1, "mode": "thebest"})


def test_client_task_follows_federation():
    cfg = config_from_dict({"version": 1, "federation": {
        "task": "multi", "n_clients": 2, "n_classes": 4,
        "classes_per_client": 2, "samples_per_client": 20,
        "n_val": 20, "n_test": 40}})
    fed = gen_federation(cfg.federation)
    assert [spec.task for spec in fed.specs] == ["multi", "multi"]
    with pytest.raises(ConfigError, match="task"):
        config_from_dict({"version": 1, "federation": {"task": "multi"},
                          "client": {"task": "single"}})


def test_overrides_patch_nested_keys():
    d = minimal()
    apply_overrides(d, ["client.lr=0.01", "mode=fedavg_full",
                        "federation.n_clients=4", "seeds=[1,2]"])
    cfg = config_from_dict(d)
    assert cfg.client.lr == 0.01
    assert cfg.mode == "fedavg_full"
    assert cfg.federation.n_clients == 4
    assert cfg.seeds == [1, 2]


def test_override_format_errors():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["norats"])
    with pytest.raises(ConfigError, match="empty key"):
        apply_overrides({}, ["=3"])


def test_fingerprint_tracks_data_not_mode():
    a = config_from_dict({"version": 1, "mode": "fedlsm"})
    b = config_from_dict({"version": 1, "mode": "fedavg_masked",
                          "client": {"lr": 0.5}})
    assert data_fingerprint(a) == data_fingerprint(b)
    c = config_from_dict({"version": 1, "federation": {"n_clients": 6}})
    assert data_fingerprint(a) != data_fingerprint(c)
    d = config_from_dict({"version": 1, "seeds": [5]})
    assert data_fingerprint(a) != data_fingerprint(d)
    # each run seed overrides federation.seed, so it does not change the data
    e = config_from_dict({"version": 1, "federation": {"seed": 99}})
    assert data_fingerprint(a) == data_fingerprint(e)


def test_config_roundtrips_through_dict():
    d = minimal()
    apply_overrides(d, ["client.augment.sigma_strong=0.6",
                        "client.augment.drop_prob=0"])
    cfg = config_from_dict(d)
    assert cfg.client.augment.sigma_strong == 0.6
    assert cfg.client.augment.drop_prob == 0.0
    assert cfg.client.augment.sigma_weak == 0.02
    again = config_from_dict(asdict(cfg))
    assert asdict(again) == asdict(cfg)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ParseError, match="bad.json:2"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(arr))


config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100) | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["version", "mode", "rounds", "seeds",
                                       "federation", "client", "task",
                                       "augment", "tau", "n_classes"]),
                      inner),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=200)
       | config_values.map(lambda v: json.dumps(v).encode()))
def test_fuzz_config_bytes_load_or_raise_config_errors(tmp_path_factory, blob):
    # Loading only: any bytes build a config or raise one of the two
    # errors the CLI turns into exit 1.
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_bytes(blob)
    try:
        config_from_dict(load_config(str(path)))
    except (ConfigError, ParseError):
        pass


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"version": 1, "rounds": 7}))
    cfg = config_from_dict(load_config(str(path)))
    assert cfg.rounds == 7
