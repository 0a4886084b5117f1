"""Experiment configuration: JSON in, validated dataclasses out.

The file format is strict: unknown keys fail with their dotted path, as
do type mismatches.  Dotted overrides (client.lr=0.001) patch the raw
dict before validation so they go through the same checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .client import ClientConfig
from .data import FederationConfig
from .errors import ConfigError, ParseError
from .server import MODES, PROXY_MODES

CONFIG_VERSION = 1


@dataclass
class ExperimentConfig:
    version: int = CONFIG_VERSION
    mode: str = "fedlsm"
    rounds: int = 50
    seeds: list[int] = field(default_factory=lambda: [0])
    hidden_dims: list[int] = field(default_factory=lambda: [32, 32])
    proxy_aggregation: str | None = None  # None: the mode's default
    federation: FederationConfig = field(default_factory=FederationConfig)
    client: ClientConfig = field(default_factory=ClientConfig)

    def validate(self) -> None:
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"version: expected {CONFIG_VERSION}, "
                              f"got {self.version}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if self.rounds < 1:
            raise ConfigError("rounds: need >= 1")
        if not self.seeds:
            raise ConfigError("seeds: need at least one")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds: duplicates would overwrite reports")
        for s in self.seeds:
            if s < 0:
                raise ConfigError(f"seeds: must be non-negative, got {s}")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims: need positive layer sizes")
        if self.proxy_aggregation is not None and \
                self.proxy_aggregation not in PROXY_MODES:
            raise ConfigError("proxy_aggregation: must be null, 'awpa' "
                              "or 'fedavg'")
        self.federation.validate("federation")
        self.client.validate("client")


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


def config_from_dict(d: dict) -> ExperimentConfig:
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


def load_config(path: str) -> dict:
    """Raw config dict from a JSON file (overrides apply before building)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return d


def apply_overrides(d: dict, overrides: list[str]) -> dict:
    """Patch a raw config dict with dotted key=value strings.

    Values parse as JSON when possible and fall back to plain strings, so
    --set mode=fedavg_full and --set client.lr=0.001 both work.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r}: empty key")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = d
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key}: {part} is not an object")
        node[parts[-1]] = value
    return d


def data_fingerprint(cfg: ExperimentConfig) -> str:
    """Hash of everything that determines the generated data.

    Two runs with equal fingerprints trained and evaluated on identical
    federations, so their metrics are directly comparable.
    """
    fed = asdict(cfg.federation)
    # Each run seed re-seeds the federation, so federation.seed, which
    # every run overrides, does not affect what a run trains on.
    fed.pop("seed")
    basis = {"federation": fed, "seeds": cfg.seeds}
    blob = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
