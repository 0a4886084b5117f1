"""The benchmark's workloads, the operation they repeat, and the layer
functions the traced run wraps.

Every workload uses the acceptance-test federation and client settings
(5 clients x 500 samples, 7 classes, 3 identified per client,
cluster_sep 2.5; lr 3e-3, 30 local iterations, batch 64, frac_h 0.2,
ude_batch_size 8, strong augmentation) for 30 rounds.  One operation is
one (arm, seed) training run through the public API.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

import fedlsm
from fedlsm import client, data, nn, server

ROUNDS = 30
HIDDEN_DIMS = (32, 32)
SEEDS_PER_RUN = 2

FEDERATION = data.FederationConfig(
    n_clients=5, n_classes=7, classes_per_client=3, feature_dim=16,
    samples_per_client=500, n_val=500, n_test=1000, cluster_sep=2.5,
    cluster_std=1.0)

CLIENT = client.ClientConfig(
    lr=3e-3, local_iters=30, batch_size=64, frac_l=0.5, frac_h=0.2,
    ude_batch_size=8,
    augment=data.AugmentConfig(sigma_weak=0.02, sigma_strong=0.6,
                               scale_jitter=0.2, drop_prob=0.1))

# Client steps (local optimiser steps summed over clients) in one operation.
STEPS_PER_OP = FEDERATION.n_clients * CLIENT.local_iters * ROUNDS


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    modes: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("single_fedlsm", "single", ("fedlsm",)),
    Workload("multi_label_fedlsm", "multi", ("fedlsm",)),
    Workload("fedavg_baselines", "single", ("fedavg_masked", "fedavg_full")),
)}


def train_seeds(workload_seed: int) -> list[int]:
    """Training (and data) seeds one run uses; disjoint across workload seeds."""
    return [workload_seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


def held_out_seed(workload_seed: int) -> int:
    """A workload seed far above the ones runs are tuned on, for re-checking
    a claim."""
    return 1_000_000 + workload_seed


def make_federation(task: str, seed: int) -> data.Federation:
    # Looked up on the module at call time so the traced run sees it.
    return data.gen_federation(replace(FEDERATION, task=task, seed=seed))


def first_round_ready(task: str, seed: int) -> None:
    """Everything a process does before its first round: data and model."""
    fed = make_federation(task, seed)
    nn.init_params([fed.config.feature_dim, *HIDDEN_DIMS],
                   fed.config.n_classes, seed=seed)


@dataclass
class OpResult:
    mode: str
    seed: int
    wall_s: float
    round_s: list = field(default_factory=list)
    final_auc: float | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _finite_metrics(ev) -> bool:
    values = [ev.macro_auc, ev.accuracy, ev.macro_f1, ev.macro_precision,
              ev.macro_recall]
    values += [v for v in ev.per_class_auc if v is not None]
    return all(math.isfinite(v) for v in values)


def run_op(fed: data.Federation, mode: str, seed: int,
           on_round=None) -> OpResult:
    """One closed-loop training run; the next round starts when the
    previous one returns.  Never raises: problems are recorded."""
    result = OpResult(mode=mode, seed=seed, wall_s=0.0)
    t0 = last = time.perf_counter()

    def timed(report, params):
        nonlocal last
        now = time.perf_counter()
        result.round_s.append(now - last)
        last = now
        if not _finite_metrics(report.metrics):
            result.problems.append(f"round {report.round}: non-finite metric")
        if on_round is not None:
            on_round(report)

    try:
        res = server.run_federation(fed, CLIENT, rounds=ROUNDS, mode=mode,
                                    seed=seed, hidden_dims=HIDDEN_DIMS,
                                    on_round=timed)
    except Exception:  # an operation boundary: record and keep measuring
        result.wall_s = time.perf_counter() - t0
        result.problems.append("raised: " + traceback.format_exc(limit=3))
        return result
    result.wall_s = time.perf_counter() - t0
    if len(res.reports) < ROUNDS:
        result.problems.append(f"{len(res.reports)} round reports, "
                               f"expected {ROUNDS}")
    else:
        result.final_auc = res.reports[-1].metrics.macro_auc
    return result


# ---- traced-run targets -------------------------------------------------

def _pseudo_hook(fn, check):
    sig = inspect.signature(fn)

    def hook(counts, args, kwargs, dec):
        unknown = set(sig.bind(*args, **kwargs).arguments["unknown"])
        made, kept, bad = check(dec, unknown)
        counts["client.pseudo.verdicts"] += made
        counts["client.pseudo.kept"] += kept
        counts["client.pseudo.identified_class"] += bad
    return hook


def _check_single(dec, unknown):
    kept = np.asarray(dec.kept, dtype=bool)
    named = np.asarray(dec.klass)[kept]
    bad = int((~np.isin(named, sorted(unknown))).sum())
    return kept.size, int(kept.sum()), bad


def _check_multi(dec, unknown):
    state = np.asarray(dec.state)
    cols = np.zeros(state.shape[1], dtype=bool)
    cols[sorted(unknown)] = True
    made = state.shape[0] * int(cols.sum())
    kept = int((state[:, cols] != 0).sum())
    bad = int((state[:, ~cols] != 0).sum())
    return made, kept, bad


def _ude_hook(counts, args, kwargs, out):
    counts["client.ude_batch.pairs"] += out[0].shape[0]


def _forward_hook(counts, args, kwargs, cache):
    counts["nn.forward.rows"] += cache.logits.shape[0]


def _score_hook(counts, args, kwargs, scores):
    counts["uncertainty.score_dataset.rows"] += len(scores)


def trace_targets():
    """(module, attribute, span name, hook) for every traced function."""
    return [
        ("fedlsm.data", "gen_federation", "data.gen_federation", None),
        ("fedlsm.data", "augment_weak_batch", "data.augment", None),
        ("fedlsm.data", "augment_strong_batch", "data.augment", None),
        ("fedlsm.uncertainty", "partition", "uncertainty.partition", None),
        ("fedlsm.uncertainty", "score_dataset", "uncertainty.score_dataset",
         _score_hook),
        ("fedlsm.client", "local_train", "client.local_train", None),
        ("fedlsm.client", "ude_batch", "client.ude_batch", _ude_hook),
        ("fedlsm.client", "pseudo_single", "client.pseudo",
         _pseudo_hook(client.pseudo_single, _check_single)),
        ("fedlsm.client", "pseudo_multi", "client.pseudo",
         _pseudo_hook(client.pseudo_multi, _check_multi)),
        ("fedlsm.client", "loss_identified", "client.loss_identified", None),
        ("fedlsm.client", "loss_unknown", "client.loss_unknown", None),
        ("fedlsm.client", "loss_ude", "client.loss_ude", None),
        ("fedlsm.nn", "forward", "nn.forward", _forward_hook),
        ("fedlsm.nn", "backward", "nn.backward", None),
        ("fedlsm.nn", "add_params", "nn.add_params", None),
        ("fedlsm.nn", "adam_step", "nn.adam_step", None),
        ("fedlsm.nn", "ema_update", "nn.ema_update", None),
        ("fedlsm.server", "aggregate", "server.aggregate", None),
        ("fedlsm.server", "evaluate", "server.evaluate", None),
        ("fedlsm.metrics", "macro_metrics", "metrics.macro_metrics", None),
    ]


def check_calls(wl: Workload, calls: dict, per_round: dict) -> list[str]:
    """Compare one traced pass (each arm once) with the counts its
    configuration implies.  Returns the mismatches.

    Protocol-level functions must match exactly; a workload without the
    fedlsm arm must never reach the pseudo-label, MixUp or partition
    code.  Array primitives whose count depends on how a client step is
    written (forward, backward, augment) only need one call per
    optimiser step; add_params is not checked.
    """
    n_ops = len(wl.modes)
    n_lsm = sum(m == "fedlsm" for m in wl.modes)
    client_rounds = FEDERATION.n_clients * ROUNDS
    iters = CLIENT.local_iters
    exact = {
        "data.gen_federation": 1,
        "client.local_train": client_rounds * n_ops,
        "nn.adam_step": client_rounds * n_ops * iters,
        "client.loss_identified": client_rounds * n_ops * iters,
        "nn.ema_update": client_rounds * n_lsm * iters,
        "client.pseudo": client_rounds * n_lsm * iters,
        "client.loss_unknown": client_rounds * n_lsm * iters,
        "client.ude_batch": client_rounds * n_lsm * iters,
        "uncertainty.partition": client_rounds * n_lsm,
        "server.aggregate": ROUNDS * n_ops,
        "server.evaluate": ROUNDS * n_ops,
        "metrics.macro_metrics": ROUNDS * n_ops,
    }
    bad = [f"{name}: {calls.get(name, 0)} calls, config implies {want}"
           for name, want in exact.items() if calls.get(name, 0) != want]
    steps = exact["nn.adam_step"]
    for name in ("nn.forward", "nn.backward", "data.augment"):
        if calls.get(name, 0) < steps:
            bad.append(f"{name}: {calls.get(name, 0)} calls, fewer than "
                       f"{steps} optimiser steps")
    for name in ("uncertainty.score_dataset", "client.loss_ude"):
        got = calls.get(name, 0)
        if (got == 0) != (n_lsm == 0):
            bad.append(f"{name}: {got} calls with {n_lsm} fedlsm arms")
    wrong = {k: v for k, v in per_round.items() if v != FEDERATION.n_clients}
    if len(per_round) != ROUNDS * n_ops or wrong:
        bad.append(f"client.local_train: {len(per_round)} (op, round) "
                   f"groups, {len(wrong)} without {FEDERATION.n_clients} calls")
    return bad


def environment() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "fedlsm": fedlsm.__version__}
