"""Config parsing, validation paths, overrides, fingerprints."""

import copy
import json
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlsm.client import ClientConfig
from fedlsm.config import (ExperimentConfig, apply_overrides, config_from_dict,
                           data_fingerprint, load_config)
from fedlsm.data import AugmentConfig, FederationConfig, gen_federation
from fedlsm.errors import ConfigError, ParseError

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_an_override_too_large_to_parse_names_its_key():
    with pytest.raises(ConfigError, match=r"^override client\.lr: value "
                       "too large to parse$"):
        apply_overrides({}, ["client.lr=" + "9" * 4301])
    with pytest.raises(ConfigError, match=r"^override seeds: "):
        apply_overrides({}, ["seeds=" + "[" * 100000])
    # a long value that is not JSON is still a plain string
    assert apply_overrides({}, ["mode=" + "x" * 5000]) == {"mode": "x" * 5000}


def test_an_override_refuses_a_repeated_key():
    with pytest.raises(ConfigError, match=r"^override client: repeated key "
                       "'lr'$"):
        apply_overrides({}, ['client={"lr": 0.1, "lr": 0.2}'])


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


@pytest.mark.parametrize("text,message", [
    ('{"version": 1, "client": {"lr": NaN}}', "client.lr: not a finite number"),
    ('{"version": 1, "client": {"lr": -Infinity}}',
     "client.lr: not a finite number"),
    ('{"version": 1, "rounds": 1e999}', "rounds: not a finite number"),
    ('{"version": 1, "seeds": [0, Infinity]}', "seeds.1: not a finite number"),
    ('{"version": 1, "rounds": 1, "rounds": 2}', "repeated key 'rounds'"),
    ('{"version": 1, "client": {"augment": {"drop_prob": 0.1,\n'
     '"drop_prob": 0.2}}}', "repeated key 'drop_prob'")],
    ids=["nan", "minus-infinity", "overflow", "infinity-in-a-list",
         "repeated-key", "repeated-nested-key"])
def test_load_config_refuses_what_json_lets_through(tmp_path, text, message):
    # Python's json reads NaN and Infinity and keeps a repeated key's last
    # value; neither is a config anyone meant.
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_load_config_refuses_nesting_too_deep_to_parse(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "x": ' + "[" * 100_000 + "]" * 100_000
                    + "}")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
        load_config(str(path))


def test_an_uncoverable_assignment_is_refused_at_load():
    d = {"version": 1, "federation": {"n_clients": 2, "n_classes": 5,
                                      "classes_per_client": 2}}
    with pytest.raises(ConfigError, match="^federation.classes_per_client: "
                       "class coverage unsatisfiable: 2 clients x 2 classes "
                       "cannot cover 5 classes$"):
        config_from_dict(d)


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


def test_readme_config_block_lists_the_defaults():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    shown = json.loads(re.sub(r"//[^\n]*", "", block))
    assert shown == asdict(ExperimentConfig())


# ---------------------------------------- one builder vs the parent parser
#
# reference_config_from_dict is the parser as it was before one builder
# walked every config dataclass: config_from_dict listed the top-level
# fields by hand beside _build_simple.  It and its helpers are kept
# verbatim.  The builder must accept the same dicts as the same config
# and reject the rest with the same exception and message.

_SCALAR = {int: "an integer", float: "a number", str: "a string",
           bool: "a boolean"}


def _get(d: dict, key: str, kind, path: str, default):
    if key not in d:
        return default
    v = d[key]
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if kind is not bool and isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected {_SCALAR[kind]}")
    if not isinstance(v, kind):
        raise ConfigError(f"{path}.{key}: expected {_SCALAR[kind]}")
    return v


def _int_list(d: dict, key: str, path: str, default):
    if key not in d:
        return list(default)
    v = d[key]
    if not isinstance(v, list) or any(
            not isinstance(x, int) or isinstance(x, bool) for x in v):
        raise ConfigError(f"{path}.{key}: expected a list of integers")
    return list(v)


def _check_keys(d: dict, allowed, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for k in d:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}: unknown key")


def _build_simple(dc_cls, d: dict, path: str):
    """Build a dataclass of scalar fields from a dict, strictly.

    A field whose default is itself a dataclass is built from the nested
    object under the same rules.
    """
    proto = dc_cls()
    names = [f.name for f in fields(dc_cls)]
    _check_keys(d, names, path)
    kwargs = {}
    for name in names:
        default = getattr(proto, name)
        if is_dataclass(default):
            kwargs[name] = _build_simple(type(default), d.get(name, {}),
                                         f"{path}.{name}")
        else:
            kwargs[name] = _get(d, name, type(default), path, default)
    return dc_cls(**kwargs)


def reference_config_from_dict(d: dict) -> ExperimentConfig:
    _check_keys(d, [f.name for f in fields(ExperimentConfig)], "config")
    proto = ExperimentConfig()
    cfg = ExperimentConfig(
        version=_get(d, "version", int, "config", proto.version),
        mode=_get(d, "mode", str, "config", proto.mode),
        rounds=_get(d, "rounds", int, "config", proto.rounds),
        seeds=_int_list(d, "seeds", "config", proto.seeds),
        hidden_dims=_int_list(d, "hidden_dims", "config", proto.hidden_dims),
        proxy_aggregation=d.get("proxy_aggregation", proto.proxy_aggregation),
        federation=_build_simple(FederationConfig, d.get("federation", {}),
                                 "federation"),
        client=_build_simple(ClientConfig, d.get("client", {}), "client"),
    )
    cfg.validate()
    return cfg


def _outcome(parse, d):
    """(repr of the parsed config as a dict) or (exception type, message);
    repr tells 1 from 1.0."""
    try:
        return repr(asdict(parse(copy.deepcopy(d))))
    except Exception as e:  # noqa: BLE001 - any exception must match
        return type(e), str(e)


# Any JSON-shaped value, including the wrong kind for every field.
_junk = st.none() | st.booleans() | st.integers(-3, 2**1030) | st.floats() \
    | st.sampled_from(["", "x", "fedlsm", "fedavg_full", "single", "multi",
                       "awpa", "fedavg"]) \
    | st.lists(st.integers(-3, 70) | st.booleans() | st.floats(-1, 2),
               max_size=3) \
    | st.dictionaries(st.sampled_from(["tau", "bogus"]),
                      st.integers(0, 2) | st.floats(0, 1), max_size=2)


def _own(default):
    """A value of the field's own kind, often one validate() accepts."""
    if default is None:
        return st.sampled_from(["awpa", "fedavg", "fedlsm"])
    if isinstance(default, list):
        return st.lists(st.integers(-1, 70), max_size=4)
    if isinstance(default, int):
        return st.integers(-1, 2 * default + 2)
    if isinstance(default, float):
        # an integer counts as a number
        return st.floats(0.8 * default, default) | st.integers(0, 2)
    return st.sampled_from(["fedlsm", "fedavg_masked", "fedavg_full",
                            "single", "multi", "other"])


def _clean(cls):
    """A dict of some of cls's fields, each its default or its own kind."""
    proto = cls()
    optional = {}
    for f in fields(cls):
        default = getattr(proto, f.name)
        optional[f.name] = _clean(type(default)) if is_dataclass(default) \
            else st.just(default) | _own(default)
    return st.fixed_dictionaries({}, optional=optional)


_SECTIONS = [((), ExperimentConfig), (("federation",), FederationConfig),
             (("client",), ClientConfig),
             (("client", "augment"), AugmentConfig)]


@st.composite
def _configs(draw):
    """A clean config dict with up to three faults: a junk field value, an
    unknown key inserted anywhere in a section, or a junk section; or
    junk in place of the whole config."""
    if draw(st.integers(0, 19)) == 0:
        return draw(_junk)
    d = draw(_clean(ExperimentConfig))
    for _ in range(draw(st.integers(0, 3))):
        path, cls = draw(st.sampled_from(_SECTIONS))
        parent, node = None, d
        for part in path:
            if not isinstance(node, dict):
                break
            parent, node = node, node.setdefault(part, {})
        if not isinstance(node, dict):
            continue
        fault = draw(st.sampled_from(["value", "key", "section"]))
        if fault == "value":
            node[draw(st.sampled_from([f.name for f in fields(cls)]))] = \
                draw(_junk)
        elif fault == "key":
            items = list(node.items())
            items.insert(draw(st.integers(0, len(items))),
                         (draw(st.sampled_from(["bogus", "task", "tau"])), 1))
            node.clear()
            node.update(items)
        elif parent is not None:
            parent[path[-1]] = draw(_junk)
    return d


FLOAT_OVERFLOW = 2**1024 - 2**970  # the least integer float() rejects


def _overflowing_key(cls, d: dict, path: str = ""):
    """Dotted path of the first float field, in the builders' walk order,
    that holds an integer too large for a float; None if there is none."""
    proto = cls()
    for f in fields(cls):
        default, v = getattr(proto, f.name), d.get(f.name)
        if is_dataclass(default) and isinstance(v, dict):
            key = _overflowing_key(type(default), v,
                                   f"{path}.{f.name}" if path else f.name)
            if key is not None:
                return key
        elif isinstance(default, float) and isinstance(v, int) \
                and not isinstance(v, bool) and abs(v) >= FLOAT_OVERFLOW:
            return f"{path or 'config'}.{f.name}"
    return None


@settings(max_examples=600, deadline=None)
@given(d=_configs())
def test_builder_matches_the_parent_parser(d):
    want = _outcome(reference_config_from_dict, d)
    if want == (OverflowError, "int too large to convert to float"):
        # The one intended difference: an integer beyond float range in a
        # float field is a ConfigError naming that field, not a traceback.
        want = (ConfigError,
                f"{_overflowing_key(ExperimentConfig, d)}: expected a number")
    assert _outcome(config_from_dict, d) == want


@pytest.mark.parametrize("key", ["client.lr", "client.augment.sigma_weak",
                                 "federation.cluster_sep"])
@pytest.mark.parametrize("value", [10**400, -10**400, FLOAT_OVERFLOW],
                         ids=["1e400", "-1e400", "least_overflow"])
def test_an_integer_beyond_float_range_is_a_config_error(key, value):
    d = node = {}
    *section, name = key.split(".")
    for part in section:
        node = node.setdefault(part, {})
    node[name] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert str(err.value) == f"{key}: expected a number"
    # the largest integer a float can round to still converts
    node[name] = FLOAT_OVERFLOW - 1
    assert _outcome(config_from_dict, d) == \
        _outcome(reference_config_from_dict, d)


@pytest.mark.parametrize("d, message", [
    ([], "config: expected an object"),
    ({"bogus": 1}, "config.bogus: unknown key"),
    ({"rounds": True}, "config.rounds: expected an integer"),
    ({"rounds": 3.0}, "config.rounds: expected an integer"),
    ({"mode": 1}, "config.mode: expected a string"),
    ({"seeds": [0, True]}, "config.seeds: expected a list of integers"),
    ({"hidden_dims": 32}, "config.hidden_dims: expected a list of integers"),
    ({"federation": []}, "federation: expected an object"),
    ({"federation": {"task": None}}, "federation.task: expected a string"),
    ({"client": {"tau": "high"}}, "client.tau: expected a number"),
    ({"client": {"local_iters": False}},
     "client.local_iters: expected an integer"),
    ({"client": {"augment": 0.1}}, "client.augment: expected an object"),
    ({"client": {"augment": {"drop_prob": True}}},
     "client.augment.drop_prob: expected a number"),
    ({"client": {"augment": {"x": 1}}}, "client.augment.x: unknown key"),
    ({"proxy_aggregation": 3}, "proxy_aggregation: must be null, 'awpa' "
                               "or 'fedavg'"),
])
def test_parse_errors_keep_their_paths(d, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert str(err.value) == message
    assert _outcome(reference_config_from_dict, d) == (ConfigError, message)

