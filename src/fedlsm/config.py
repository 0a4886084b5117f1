"""Experiment configuration: JSON in, validated dataclasses out.

The file format is strict: unknown keys, type mismatches, repeated keys
and NaN fail by name.  Dotted overrides (client.lr=0.001) patch the raw
dict before validation so they go through the same checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

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
        self.federation.validate()
        self.client.validate()


_SCALAR = {int: "an integer", float: "a number", str: "a string",
           bool: "a boolean"}


def _build(cls, d: dict, path: str = ""):
    """Build the config dataclass cls from the dict d, strictly.

    Each field's default decides what it takes: a dataclass default builds
    its section from the nested object, a list default takes a list of
    integers, a None default passes the value on for validate() to judge,
    and any other default fixes the scalar type (an integer also counts as
    a number).  Top-level keys read config.<key>; a section's keys read
    <section>.<key>.
    """
    where = path or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    names = [f.name for f in fields(cls)]
    for k in d:
        if k not in names:
            raise ConfigError(f"{where}.{k}: unknown key")
    proto, kwargs = cls(), {}
    for name in names:
        default = getattr(proto, name)
        if name not in d or default is None:
            kwargs[name] = d.get(name, default)
            continue
        v, key = d[name], f"{where}.{name}"
        if is_dataclass(default):
            v = _build(type(default), v, f"{path}.{name}" if path else name)
        elif isinstance(default, list):
            if not isinstance(v, list) or any(
                    not isinstance(x, int) or isinstance(x, bool) for x in v):
                raise ConfigError(f"{key}: expected a list of integers")
            v = list(v)
        else:
            kind = type(default)
            if kind is float and isinstance(v, int) and not isinstance(v, bool):
                try:
                    v = float(v)
                except OverflowError:  # beyond float range: no number
                    raise ConfigError(f"{key}: expected a number") from None
            if not isinstance(v, kind) or (isinstance(v, bool)
                                           and kind is not bool):
                raise ConfigError(f"{key}: expected {_SCALAR[kind]}")
        kwargs[name] = v
    return cls(**kwargs)


def config_from_dict(d: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, d)
    cfg.validate()
    return cfg


def _object(pairs: list) -> dict:
    """A JSON object, refusing a key it repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _finite(value, key: str = ""):
    """value, refusing a NaN or infinity within it by its dotted key."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key or 'value'}: not a finite number")
    for k, v in (value.items() if isinstance(value, dict) else
                 enumerate(value) if isinstance(value, list) else ()):
        _finite(v, f"{key}.{k}" if key else str(k))
    return value


def read_json(path, lines: bool = False):
    """The JSON value in the UTF-8 file at path, or with lines=True one per
    line.  NaN, infinities and a key repeated within an object are refused:
    a ParseError names the file, the line (with lines=True) and the key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text") from e
    values = []
    for line, doc in enumerate(text.splitlines(), 1) if lines else [(0, text)]:
        try:
            values.append(_finite(json.loads(doc, object_pairs_hook=_object)))
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{line or e.lineno}: invalid JSON: {e.msg}") from e
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}{f':{line}' if line else ''}: {e}") from e
    return values if lines else values[0]


def load_config(path: str) -> dict:
    """Raw config dict from a JSON file (overrides apply before building)."""
    d = read_json(path)
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return d


def apply_overrides(d: dict, overrides: list[str]) -> dict:
    """Patch a raw config dict with dotted key=value strings.

    Values parse as JSON when possible and fall back to plain strings, so
    --set mode=fedavg_full and --set client.lr=0.001 both work.  An object
    that repeats a key is refused, as in a config file.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r}: empty key")
        try:
            value = json.loads(raw, object_pairs_hook=_object)
        except json.JSONDecodeError:
            value = raw
        except ParseError as e:  # a repeated key
            raise ConfigError(f"override {key}: {e}") from None
        except (ValueError, RecursionError):  # too many digits or too deep
            raise ConfigError(f"override {key}: value too large to parse") \
                from None
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
