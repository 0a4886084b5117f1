"""Synthetic federations with label-set mismatch.

Single-label task: M Gaussian clusters in d dimensions with well separated
centers; a sample's hidden class is its cluster id.  Multi-label task: each
class owns a random unit direction and a sample is positive for the class
when its projection onto that direction clears a quantile threshold, so
every class stays linearly separable with a controllable positivity rate.

Each client identifies s of the M classes.  Labels outside the identified
set are zeroed and flagged unknown; for the single-label task a sample
whose hidden class is not identified becomes fully unlabeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

COVERAGE_ATTEMPTS = 1000
TASKS = ("single", "multi")


def ndtri(p: float) -> np.float64:
    """Standard normal quantile of p in [0, 1] by AS241 (statistics),
    with the -inf at 0.0 and +inf at 1.0 that inv_cdf refuses."""
    if p == 0.0:
        return np.float64(-np.inf)
    if p == 1.0:
        return np.float64(np.inf)
    # Imported here, so only multi-label generation pays for the module.
    from statistics import NormalDist
    return np.float64(NormalDist().inv_cdf(p))


def check_task(task: str, where: str = "task:") -> None:
    """Raise a ConfigError naming `task` unless it is one of TASKS."""
    if task not in TASKS:
        raise ConfigError(f"{where} must be 'single' or 'multi', "
                          f"got {task!r}")


@dataclass
class ClientData:
    """One client's training view, one row per sample.

    values[i, c] is meaningful only where known[i, c] is True; everywhere
    else it is zero by construction.  Ground truth is kept apart, so
    training code cannot read it.
    """

    x: np.ndarray       # (n, d) inputs
    values: np.ndarray  # (n, m) label values
    known: np.ndarray   # (n, m) per-class trust mask

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class EvalSet:
    """Inputs with their full ground truth, for evaluation only."""

    x: np.ndarray      # (n, d)
    truth: np.ndarray  # (n, m)

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class ClientSpec:
    client_id: int
    identified: tuple[int, ...]
    unknown: tuple[int, ...]
    task: str  # the federation's task, one of TASKS

    def __post_init__(self):
        check_task(self.task, f"client {self.client_id}: task")


@dataclass
class AugmentConfig:
    """Vector perturbations standing in for image augmentation roles.

    Weak: additive Gaussian noise.  Strong: larger additive noise, then
    per-coordinate scaling in [1-scale_jitter, 1+scale_jitter], then
    coordinate dropout.  Defaults assume unit cluster spread.
    """

    sigma_weak: float = 0.02
    sigma_strong: float = 0.2
    scale_jitter: float = 0.1
    drop_prob: float = 0.05

    def validate(self) -> None:
        for name in ("sigma_weak", "sigma_strong", "scale_jitter"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"client.augment: {name} must be finite and >= 0")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError("client.augment: need 0 <= drop_prob < 1")


@dataclass
class FederationConfig:
    n_clients: int = 5
    n_classes: int = 7
    classes_per_client: int = 3
    feature_dim: int = 16
    task: str = "single"  # one of TASKS
    samples_per_client: int = 500
    n_val: int = 500
    n_test: int = 1000
    cluster_sep: float = 4.0   # pairwise center distance, in cluster-std units
    cluster_std: float = 1.0
    positive_rate: float = 0.3  # multi-label per-class positive fraction
    seed: int = 0

    def validate(self) -> None:
        if self.n_clients < 2:
            raise ConfigError(f"federation.n_clients: need >= 2, got {self.n_clients}")
        if self.n_classes < 2:
            raise ConfigError(f"federation.n_classes: need >= 2, got {self.n_classes}")
        if not 1 <= self.classes_per_client <= self.n_classes:
            raise ConfigError(
                f"federation.classes_per_client: need 1..{self.n_classes}, "
                f"got {self.classes_per_client}")
        check_task(self.task, "federation.task:")
        if self.feature_dim < 1:
            raise ConfigError("federation.feature_dim: need >= 1")
        if self.samples_per_client < 1:
            raise ConfigError("federation.samples_per_client: need >= 1")
        if self.n_val < 0:
            raise ConfigError("federation.n_val: need >= 0")
        if self.n_test < 1:
            raise ConfigError("federation.n_test: need >= 1")
        if not 0.0 < self.cluster_std < math.inf:
            raise ConfigError("federation.cluster_std: need finite > 0, "
                              f"got {self.cluster_std}")
        if not 0.0 <= self.cluster_sep < math.inf:
            raise ConfigError("federation.cluster_sep: need finite >= 0, "
                              f"got {self.cluster_sep}")
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError("federation.positive_rate: need (0, 1), "
                              f"got {self.positive_rate}")
        if self.classes_per_client * self.n_clients < self.n_classes:
            raise ConfigError(
                "federation.classes_per_client: class coverage unsatisfiable: "
                f"{self.n_clients} clients x {self.classes_per_client} classes "
                f"cannot cover {self.n_classes} classes")


@dataclass
class Federation:
    specs: list[ClientSpec]
    clients: list[ClientData]  # masked per the owning client's spec
    # Each client's full labels, (n, m): for the fully labeled reference
    # (fedavg_full) and diagnostics only, never for local training.
    truth: list[np.ndarray]
    val: EvalSet
    test: EvalSet
    config: FederationConfig = None


def _class_directions(n_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal rows when dim allows; random unit rows otherwise."""
    if n_classes <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return q[:, :n_classes].T.copy()
    vecs = rng.standard_normal((n_classes, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _sample_identified_sets(cfg: FederationConfig,
                            rng: np.random.Generator) -> list[tuple[int, ...]]:
    # Resample the whole assignment until every class is identified somewhere.
    for _ in range(COVERAGE_ATTEMPTS):
        sets = [tuple(sorted(rng.choice(cfg.n_classes, cfg.classes_per_client,
                                        replace=False).tolist()))
                for _ in range(cfg.n_clients)]
        if len(set().union(*sets)) == cfg.n_classes:
            return sets
    raise ConfigError("class coverage unsatisfiable: resampling budget exhausted")


def gen_federation(cfg: FederationConfig) -> Federation:
    """Build per-client datasets, a validation set and a test set.

    Deterministic per cfg.seed.  Client data is already masked; val/test
    keep full labels.  A test set with no class that has both positives
    and negatives cannot be scored, so it is a ConfigError.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    m, d = cfg.n_classes, cfg.feature_dim
    specs = [ClientSpec(client_id=k, identified=ident, task=cfg.task,
                        unknown=tuple(c for c in range(m) if c not in ident))
             for k, ident in enumerate(_sample_identified_sets(cfg, rng))]
    directions = _class_directions(m, d, rng)
    if cfg.task == "single":
        # Orthonormal rows scaled so pairwise center distance = cluster_sep * std.
        centers = directions * (cfg.cluster_sep * cfg.cluster_std / np.sqrt(2.0))

        def draw(n):
            classes = rng.integers(0, m, size=n)
            xs = centers[classes] + cfg.cluster_std * rng.standard_normal((n, d))
            return EvalSet(x=xs, truth=np.eye(m)[classes])
    else:
        # AS241's normal quantile: +inf when 1 - rate rounds to 1.0, so
        # no row is positive and the test-set check below refuses it.
        threshold = ndtri(1.0 - cfg.positive_rate)

        def draw(n):
            xs = rng.standard_normal((n, d))
            return EvalSet(x=xs, truth=(xs @ directions.T >= threshold
                                        ).astype(np.float64))

    full = [draw(cfg.samples_per_client) for _ in specs]
    clients = [mask_labels(f.x, f.truth, spec) for f, spec in zip(full, specs)]
    val = draw(cfg.n_val)
    test = draw(cfg.n_test)
    if not (test.truth.min(axis=0) < test.truth.max(axis=0)).any():
        raise ConfigError(f"federation.n_test: {cfg.n_test} test samples "
                          "leave no class with both positives and "
                          "negatives, so no macro AUC can be scored")
    return Federation(specs=specs, clients=clients,
                      truth=[f.truth for f in full], val=val, test=test,
                      config=cfg)


def mask_labels(x: np.ndarray, truth: np.ndarray,
                spec: ClientSpec) -> ClientData:
    """Apply the client's identified-class view to full (n, m) labels.

    Multi-label: the mask is True exactly on identified classes, values
    are zeroed elsewhere.  Single-label: a row keeps its one-hot label
    only when its hidden class is identified; otherwise it is fully
    unlabeled.
    """
    identified = np.zeros(truth.shape[1], dtype=bool)
    identified[list(spec.identified)] = True
    if spec.task == "multi":
        known = np.tile(identified, (len(truth), 1))
    else:
        has_label = identified[truth.argmax(axis=1)]
        known = np.repeat(has_label[:, None], truth.shape[1], axis=1)
    return ClientData(x=x, values=np.where(known, truth, 0.0), known=known)


def unmask_labels(x: np.ndarray, truth: np.ndarray) -> ClientData:
    """Restore full supervision (the fully-labeled upper-bound setting)."""
    return ClientData(x=x, values=truth.copy(),
                      known=np.ones(truth.shape, dtype=bool))


def augment_weak_batch(xs: np.ndarray, rng: np.random.Generator,
                       cfg: AugmentConfig) -> np.ndarray:
    """Small additive-noise view of each row of xs."""
    return xs + cfg.sigma_weak * rng.standard_normal(xs.shape)


def augment_strong_batch(xs: np.ndarray, rng: np.random.Generator,
                         cfg: AugmentConfig) -> np.ndarray:
    """Noise + coordinate scaling + dropout view of each row of xs."""
    out = xs + cfg.sigma_strong * rng.standard_normal(xs.shape)
    out = out * rng.uniform(1.0 - cfg.scale_jitter, 1.0 + cfg.scale_jitter,
                            xs.shape)
    if cfg.drop_prob > 0:
        out = np.where(rng.random(xs.shape) < cfg.drop_prob, 0.0, out)
    return out
