"""Server side: aggregation and the round loop.

Aggregation is one weighted average of the whole model (aggregate()).
Sample shares weight every parameter except the proxy rows, where AWPA
weights each client by its estimated count for that class, so clients
that actually saw (or confidently pseudo-labeled) a class dominate its
proxy.
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
    for i, u in enumerate(updates):
        if i and u.client_id == updates[i - 1].client_id:
            raise AggregationError(
                f"client {u.client_id}: more than one update")
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


def aggregate(updates: list[ClientUpdate],
              proxy_mode: str = "awpa") -> nn.ModelParams:
    """One weighted average of every parameter, summed in client-id order.

    Client k's weight is its sample share n_k / sum(n), except on proxy
    row c and its bias, where "awpa" weights it by k's count for c over
    the total count for c.  A class nobody counted keeps sample shares.
    "fedavg" is awpa with nothing counted, so it uses sample shares
    throughout.
    """
    if proxy_mode not in PROXY_MODES:
        raise ConfigError(f"unknown proxy aggregation '{proxy_mode}'")
    updates = _check_updates(updates)
    n = np.array([u.n_samples for u in updates], dtype=np.float64)
    w = n / n.sum()  # (K,)
    q = np.stack([np.asarray(u.edd, dtype=np.float64) for u in updates])
    if proxy_mode == "fedavg":  # nothing counted: sample shares
        q[...] = 0.0
    totals = q.sum(axis=0)  # (M,)
    shares = np.where(totals > 0, q / np.where(totals > 0, totals, 1.0),
                      w[:, None])  # (K, M)
    weights = [u.params.like(np.full_like(u.params.flat, wk))
               for wk, u in zip(w, updates)]
    for weight, s in zip(weights, shares):
        weight.proxies[...], weight.proxy_bias[...] = s[:, None], s
    return updates[0].params.like(
        sum(wt.flat * u.params.flat for wt, u in zip(weights, updates)))


def aggregate_proxies(updates: list[ClientUpdate], mode: str = "awpa"):
    """The proxy layer of aggregate(updates, mode) -> (proxies, proxy_bias)."""
    params = aggregate(updates, mode)
    return params.proxies, params.proxy_bias


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
