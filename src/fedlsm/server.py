"""Server side: aggregation and the round loop.

Feature-extractor layers aggregate by sample-count-weighted averaging.
Classification proxies aggregate per class, weighted by each client's
estimated class distribution, so clients that actually saw (or
confidently pseudo-labeled) a class dominate its proxy.  Classes nobody
counted fall back to sample-count weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .client import ClientConfig, ClientUpdate, local_train
from .data import EvalSet, Federation, unmask_labels
from .errors import AggregationError, ConfigError
from .metrics import EvalResult, macro_metrics

MODES = ("fedlsm", "fedavg_masked", "fedavg_full")
PROXY_MODES = ("awpa", "fedavg")


@dataclass
class RoundReport:
    round: int
    metrics: EvalResult
    lr: float
    client_stats: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"round": self.round, "lr": self.lr,
                **self.metrics.as_dict(),
                "client_stats": self.client_stats}


@dataclass
class FederationResult:
    params: nn.ModelParams
    reports: list


def _check_updates(updates: list[ClientUpdate]) -> list[ClientUpdate]:
    if not updates:
        raise AggregationError("no client updates to aggregate")
    updates = sorted(updates, key=lambda u: u.client_id)
    ref = updates[0].params
    for u in updates:
        if u.params.dims != ref.dims \
                or u.params.num_classes != ref.num_classes:
            raise AggregationError(
                f"client {u.client_id}: model shape "
                f"{u.params.dims}/{u.params.num_classes} does not match "
                f"{ref.dims}/{ref.num_classes}")
        if u.n_samples <= 0:
            raise AggregationError(
                f"client {u.client_id}: non-positive sample count "
                f"{u.n_samples}")
        edd = np.asarray(u.edd, dtype=np.float64)
        if edd.shape != (ref.num_classes,):
            raise AggregationError(
                f"client {u.client_id}: class-count vector has shape "
                f"{edd.shape}, expected ({ref.num_classes},)")
        if not np.all(np.isfinite(edd)) or np.any(edd < 0):
            raise AggregationError(
                f"client {u.client_id}: class counts must be finite and "
                "non-negative")
    return updates


def sample_weights(updates: list[ClientUpdate]) -> np.ndarray:
    counts = np.array([u.n_samples for u in updates], dtype=np.float64)
    return counts / counts.sum()


def aggregate_features(updates: list[ClientUpdate]) -> nn.ModelParams:
    """Sample-count-weighted average of the whole parameter vector, summed
    in client-id order.  Its hidden layers are the aggregate's; aggregate()
    replaces its proxy layer."""
    updates = _check_updates(updates)
    w = sample_weights(updates)
    return updates[0].params.like(
        sum(wk * u.params.flat for wk, u in zip(w, updates)))


def aggregate_proxies(updates: list[ClientUpdate], mode: str = "awpa"):
    """Per-class weighted average of proxies -> (proxies, proxy_bias).

    "awpa" weights client k's row for class c by its count for c over the
    total count for c; a class with total count zero falls back to
    sample-count weights.  "fedavg" is awpa with nothing counted, so it
    uses sample-count weights throughout.
    """
    if mode not in PROXY_MODES:
        raise ConfigError(f"unknown proxy aggregation '{mode}'")
    updates = _check_updates(updates)
    proxy_stack = np.stack([u.params.proxies for u in updates])  # (K, M, F)
    bias_stack = np.stack([u.params.proxy_bias for u in updates])  # (K, M)
    q = np.stack([np.asarray(u.edd, dtype=np.float64) for u in updates])
    if mode == "fedavg":  # nothing counted: sample-count weights
        q[...] = 0.0
    totals = q.sum(axis=0)  # (M,)
    weights = np.where(totals > 0, q / np.where(totals > 0, totals, 1.0),
                       sample_weights(updates)[:, None])  # (K, M)
    proxies = np.einsum("km,kmf->mf", weights, proxy_stack)
    proxy_bias = (weights * bias_stack).sum(axis=0)
    return proxies, proxy_bias


def aggregate(updates: list[ClientUpdate],
              proxy_mode: str = "awpa") -> nn.ModelParams:
    params = aggregate_features(updates)
    params.proxies[...], params.proxy_bias[...] = aggregate_proxies(
        updates, proxy_mode)
    return params


def evaluate(params: nn.ModelParams, dataset: EvalSet,
             task: str) -> EvalResult:
    if len(dataset) == 0:
        raise ConfigError("empty evaluation set")
    logits = nn.forward(params, dataset.x).logits
    probs = nn.softmax(logits) if task == "single" else nn.sigmoid(logits)
    return macro_metrics(probs, dataset.truth, task)


def run_federation(fed: Federation, client_cfg: ClientConfig, *, rounds: int,
                   mode: str, seed: int, hidden_dims=(32, 32),
                   proxy_mode: str | None = None,
                   on_round=None) -> FederationResult:
    """Full training run in one of three modes.

    fedlsm        pseudo-label training, class-weighted proxy aggregation
    fedavg_masked supervised on the masked labels only, plain averaging
    fedavg_full   supervised with all masking removed (upper reference)

    All modes consume the same federation object, so data is identical
    and results are comparable.  `on_round` is called with each
    RoundReport as it is produced.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}', expected one of {MODES}")
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    use_pseudo = mode == "fedlsm"
    if mode == "fedavg_full":
        datasets = [unmask_labels(c.x, t)
                    for c, t in zip(fed.clients, fed.truth)]
    else:
        datasets = fed.clients
    proxy = proxy_mode or ("awpa" if use_pseudo else "fedavg")

    dims = [fed.config.feature_dim, *hidden_dims]
    params = nn.init_params(dims, fed.config.n_classes, seed=seed)
    reports = []
    for r in range(rounds):
        updates = [local_train(params, dataset, spec, client_cfg, r, seed,
                               use_pseudo)
                   for spec, dataset in zip(fed.specs, datasets)]
        params = aggregate(updates, proxy)
        ev = evaluate(params, fed.test, fed.config.task)
        report = RoundReport(round=r, metrics=ev, lr=client_cfg.lr_at(r),
                             client_stats=[dict(u.stats,
                                                client_id=u.client_id,
                                                n_samples=u.n_samples)
                                           for u in updates])
        reports.append(report)
        if on_round is not None:
            on_round(report, params)
    return FederationResult(params=params, reports=reports)
