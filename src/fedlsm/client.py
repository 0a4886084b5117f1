"""One client's local round.

Training follows the teacher/student recipe: both start from the global
model, the student takes Adam steps on

    L = L_identified + L_unknown + ude_weight * L_ude

and the teacher tracks the student by exponential moving average.  The
teacher labels weakly augmented views; the student is penalized on
strongly augmented views.  Uncertain samples that the confidence filter
would otherwise ignore enter through MixUp pairs against confident ones.

All losses return (value, dloss/dlogits) so parameter gradients come from
a single backward() call per forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import (AugmentConfig, ClientData, ClientSpec,
                   augment_strong_batch, augment_weak_batch)
from .errors import ConfigError, NumericError
from .uncertainty import UncertaintyPartition, partition

UDE_CANDIDATES_PER_PAIR = 4


@dataclass
class ClientConfig:
    # Confidence thresholds: tau/tau_l drive the single-label task,
    # tau_p/tau_n/tau_lp/tau_ln the multi-label task.  The *_l* variants
    # are the relaxed thresholds used when labeling MixUp members.
    tau: float = 0.95
    tau_l: float = 0.85
    tau_p: float = 0.85
    tau_n: float = 5e-3
    tau_lp: float = 0.7
    tau_ln: float = 1e-2
    ude_weight: float = 0.1
    ema_decay: float = 0.999
    mixup_alpha: float = 0.2
    lr: float = 1e-4
    lr_decay: float = 5e-4
    local_iters: int = 30
    batch_size: int = 64
    ude_batch_size: int = 4
    frac_l: float = 0.5
    frac_h: float = 0.1
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self, path: str = "client") -> None:
        if not 0.0 < self.tau_n < self.tau_p < 1.0:
            raise ConfigError(f"{path}: need 0 < tau_n < tau_p < 1")
        if not 0.0 < self.tau_ln < self.tau_lp < 1.0:
            raise ConfigError(f"{path}: need 0 < tau_ln < tau_lp < 1")
        if not self.tau_l < self.tau:
            raise ConfigError(f"{path}: need tau_l < tau")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"{path}: need tau in (0, 1)")
        if not 0 <= self.ude_batch_size <= self.batch_size:
            raise ConfigError(
                f"{path}: need 0 <= ude_batch_size <= batch_size")
        if self.mixup_alpha <= 0:
            raise ConfigError(f"{path}: mixup_alpha must be positive")
        if self.ude_weight < 0:
            raise ConfigError(f"{path}: ude_weight must be >= 0")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError(f"{path}: ema_decay must be in [0, 1]")
        if self.lr <= 0:
            raise ConfigError(f"{path}: lr must be positive")
        if self.lr_decay < 0:
            raise ConfigError(f"{path}: lr_decay must be >= 0")
        if self.local_iters < 0 or self.batch_size < 1:
            raise ConfigError(f"{path}: bad local_iters/batch_size")
        if self.frac_l < 0 or self.frac_h < 0 or self.frac_l + self.frac_h > 1:
            raise ConfigError(f"{path}: need frac_l + frac_h <= 1")
        self.augment.validate(f"{path}.augment")

    def lr_at(self, round_idx: int) -> float:
        """The learning rate of round round_idx: lr / (1 + lr_decay * t)."""
        return self.lr / (1.0 + self.lr_decay * round_idx)


@dataclass
class PseudoLabelDecision:
    """Teacher verdicts for a batch of weakly augmented samples.

    Single-label: kept[i] says the max teacher probability cleared the
    threshold AND the argmax class is locally unknown; klass[i] is that
    argmax.  Multi-label: state[i, c] is +1 (confident positive),
    -1 (confident negative) or 0 (abstain) for unknown classes, always 0
    for identified ones.
    """

    kept: np.ndarray | None = None
    klass: np.ndarray | None = None
    state: np.ndarray | None = None

    def masks(self, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positive, negative) (n, m) masks of the verdicts on rows with
        trust mask `known`.  A kept single-label verdict counts only on a
        row with no known label: positive on klass, negative elsewhere.
        Multi-label verdicts pass through."""
        if self.state is not None:
            return self.state == 1, self.state == -1
        kept = self.kept & ~known.any(axis=1)
        pos = kept[:, None] & np.eye(known.shape[1], dtype=bool)[self.klass]
        return pos, kept[:, None] & ~pos


@dataclass
class ClientUpdate:
    client_id: int
    params: nn.ModelParams
    n_samples: int
    edd: np.ndarray  # per-class count vector: labels for identified classes,
    #                  confident pseudo labels for unknown ones
    stats: dict = field(default_factory=dict)


def _draw_with_replacement(pool: np.ndarray, k: int,
                           rng: np.random.Generator) -> np.ndarray:
    """k entries of pool drawn with replacement: the same entries, and the
    same generator state after, as rng.choice(pool, k), in fewer steps."""
    return pool[rng.integers(0, len(pool), size=k)]


def _decide(logits: np.ndarray, unknown, task: str, hi: float,
            lo: float | None) -> PseudoLabelDecision:
    """The confident-verdict rule on teacher logits.

    Single-label: keep a row whose max softmax probability is at least hi
    and whose argmax class is locally unknown.  Multi-label: per unknown
    class, +1 where the sigmoid is at least hi, -1 where at most lo.
    """
    cols = np.zeros(logits.shape[1], dtype=bool)
    cols[list(unknown)] = True
    if task == "single":
        probs = nn.softmax(logits)
        klass = probs.argmax(axis=1)
        kept = (probs.max(axis=1) >= hi) & cols[klass]
        return PseudoLabelDecision(kept=kept, klass=klass)
    probs = nn.sigmoid(logits)
    state = np.zeros(probs.shape, dtype=np.int8)
    state[cols & (probs >= hi)] = 1
    state[cols & (probs <= lo)] = -1
    return PseudoLabelDecision(state=state)


def pseudo_single(teacher: nn.ModelParams, x_weak: np.ndarray, unknown,
                  threshold: float) -> PseudoLabelDecision:
    """Hard pseudo labels from teacher softmax on weak views.

    Accepts one vector or a (batch, d) matrix.
    """
    x = np.atleast_2d(np.asarray(x_weak, dtype=np.float64))
    return _decide(nn.forward(teacher, x).logits, unknown, "single",
                   threshold, None)


def pseudo_multi(teacher: nn.ModelParams, x_weak: np.ndarray, unknown,
                 tau_p: float, tau_n: float) -> PseudoLabelDecision:
    """Per-class positive/negative/abstain verdicts from teacher sigmoids."""
    if not tau_n < tau_p:
        raise ConfigError(f"need tau_n < tau_p, got {tau_n} >= {tau_p}")
    x = np.atleast_2d(np.asarray(x_weak, dtype=np.float64))
    return _decide(nn.forward(teacher, x).logits, unknown, "multi", tau_p,
                   tau_n)


def _softmax_ce(logits: np.ndarray, targets: np.ndarray, denom: int):
    """Softmax cross-entropy against (n, m) target rows, over denom.

    Rows may be one-hot or soft; an all-zero row adds exactly nothing.
    The loss is summed row by row in index order, so it does not depend
    on how NumPy groups a reduction.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if denom == 0:
        return 0.0, np.zeros_like(logits)
    targets = np.asarray(targets, dtype=np.float64)
    log_p = nn.log_softmax(logits)
    dlogits = np.exp(log_p) * targets.sum(axis=1, keepdims=True) - targets
    loss = 0.0 - np.cumsum((targets * log_p).sum(axis=1))[-1]
    return float(loss / denom), dlogits / denom


def _masked_bce(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray,
                denom: int, pos_weight: np.ndarray | None = None):
    """Binary cross-entropy on the entries where mask is set, over denom;
    pos_weight scales the positive term per class.  Logs via softplus."""
    logits = np.asarray(logits, dtype=np.float64)
    if denom == 0:
        return 0.0, np.zeros_like(logits)
    targets = np.asarray(targets, dtype=np.float64)
    wt = targets if pos_weight is None else pos_weight * targets
    per_entry = -(wt * -np.logaddexp(0.0, -logits)
                  + (1.0 - targets) * -np.logaddexp(0.0, logits))
    diff = nn.sigmoid(logits) - targets
    if pos_weight is not None:
        diff *= np.where(targets > 0, pos_weight, 1.0)
    return float((mask * per_entry).sum() / denom), mask * diff / denom


def loss_identified(logits: np.ndarray, values: np.ndarray, known: np.ndarray,
                    task: str, class_weights: np.ndarray | None = None):
    """Supervised loss on known labels -> (loss, dloss/dlogits).

    values and known are the batch's (n, m) label values and trust mask;
    values are zero wherever known is not set.  Single-label: mean
    cross-entropy over the labeled samples.  Multi-label: mean weighted
    BCE over the known (sample, class) pairs.  Unlabeled rows and unknown
    pairs carry exactly zero gradient.
    """
    if task == "single":
        return _softmax_ce(logits, values, np.count_nonzero(known.any(axis=1)))
    return _masked_bce(logits, values, known, np.count_nonzero(known),
                       class_weights)


def loss_unknown(logits: np.ndarray, hits: np.ndarray, task: str,
                 negative: np.ndarray | None = None):
    """Pseudo-label loss on strong views -> (loss, dloss/dlogits).

    hits is the (n, m) matrix of confident positive pseudo labels.
    Single-label: cross-entropy against the one-hot kept rows, normalized
    by the kept count.  Multi-label: hits pull log(sigma) up and the
    `negative` verdicts pull log(1 - sigma), normalized by the batch size.
    Abstaining entries contribute nothing.
    """
    if task == "single":
        return _softmax_ce(logits, hits, np.count_nonzero(hits))
    return _masked_bce(logits, hits, hits | negative, len(logits))


def loss_ude(logits: np.ndarray, targets: np.ndarray, task: str,
             valid: np.ndarray | None = None):
    """Cross-entropy against soft MixUp labels -> (loss, dloss/dlogits).

    Multi-label entries where either MixUp member abstained are excluded
    via `valid`.
    """
    if task == "single":
        return _softmax_ce(logits, targets, len(logits))
    mask = np.ones(np.shape(targets), dtype=bool) if valid is None else valid
    return _masked_bce(logits, targets, mask, np.count_nonzero(mask))


def mixup(x_l: np.ndarray, y_l: np.ndarray, x_h: np.ndarray, y_h: np.ndarray,
          lambda_mix):
    """Convex combination of two samples and their label vectors.

    For row-stacked pairs, lambda_mix is a (pairs, 1) column of weights.
    """
    x = lambda_mix * np.asarray(x_l) + (1.0 - lambda_mix) * np.asarray(x_h)
    y = lambda_mix * np.asarray(y_l) + (1.0 - lambda_mix) * np.asarray(y_h)
    return x, y


def ude_candidates(known: np.ndarray, cfg: ClientConfig) -> int:
    """MixUp candidate pairs per batch: ude_batch_size when some class is
    known on every row (then every pair is usable), else
    UDE_CANDIDATES_PER_PAIR times as many."""
    per_pair = 1 if known.all(axis=0).any() else UDE_CANDIDATES_PER_PAIR
    return per_pair * cfg.ude_batch_size


def ude_batch(x: np.ndarray, values: np.ndarray, known: np.ndarray,
              part: UncertaintyPartition, teacher: nn.ModelParams,
              spec: ClientSpec, cfg: ClientConfig, rng: np.random.Generator,
              candidates: int | None = None):
    """Sample up to ude_batch_size MixUp pairs of (confident, uncertain).

    x, values and known hold the client's samples row by row; `part`
    indexes the rows.  `candidates` pairs (default ude_candidates(known,
    cfg)) are drawn at once, and one teacher pass labels all their
    members' weak views.  Confident and uncertain members alike take
    their known labels first and, elsewhere, the pseudo-label rule's
    verdicts at the relaxed thresholds, so a pseudo label only names an
    unknown class.  A pair is valid on the classes where both members are
    usable and is usable when it has one such class.  The first
    ude_batch_size usable candidates come back in draw order, so fewer
    pairs may come back.  Returns (inputs, soft labels, valid-entry mask).
    """
    m = teacher.num_classes
    if len(part.high) == 0 or len(part.low) == 0 or cfg.ude_batch_size == 0:
        return (np.zeros((0, x.shape[1])), np.zeros((0, m)),
                np.zeros((0, m), dtype=bool))
    n = ude_candidates(known, cfg) if candidates is None else candidates
    hi, lo = (cfg.tau_l, None) if spec.task == "single" \
        else (cfg.tau_lp, cfg.tau_ln)
    low_idx = _draw_with_replacement(part.low, n, rng)
    high_idx = _draw_with_replacement(part.high, n, rng)
    members = np.concatenate([low_idx, high_idx])
    # One draw of 2n weak views is the same stream as a draw for the low
    # members followed by one for the high members.
    logits = nn.forward(teacher, augment_weak_batch(
        x[members], rng, cfg.augment)).logits
    pos, neg = _decide(logits, spec.unknown, spec.task, hi,
                       lo).masks(known[members])
    y = np.where(pos, 1.0, values[members])
    ok = known[members] | pos | neg
    lams = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=n)
    pair_ok = ok[:n] & ok[n:]
    keep = np.flatnonzero(pair_ok.any(axis=1))[:cfg.ude_batch_size]
    x_mix, y_mix = mixup(x[low_idx[keep]], y[keep], x[high_idx[keep]],
                         y[n + keep], lams[keep, None])
    return x_mix, y_mix, pair_ok[keep]


def compute_class_weights(values: np.ndarray, known: np.ndarray, identified,
                          clip_max: float = 100.0) -> np.ndarray:
    """Positive-term BCE weights n_neg/n_pos from known labels, in [1, clip].

    values and known are (n, m) label values and trust mask; classes
    outside `identified` get weight 1.
    """
    n_pos = np.where(known, values, 0.0).sum(axis=0)
    n_neg = known.sum(axis=0) - n_pos
    ratio = np.clip(n_neg / np.maximum(n_pos, 1.0), 1.0, clip_max)
    weights = np.ones(values.shape[1])
    cols = list(identified)
    weights[cols] = ratio[cols]
    return weights


def _track_verdicts(tracked: np.ndarray, batch_idx: np.ndarray,
                    hits: np.ndarray) -> None:
    """Record in `tracked` each sample's latest confident pseudo verdict.

    hits[j] holds the positive classes of the verdict on sample
    batch_idx[j].  A row with none leaves the sample's earlier verdict in
    place; a sample drawn twice keeps its later verdict.
    """
    rows = np.flatnonzero(hits.any(axis=1))
    _, first_from_end = np.unique(batch_idx[rows][::-1], return_index=True)
    rows = rows[len(rows) - 1 - first_from_end]
    tracked[batch_idx[rows]] = hits[rows]


def local_train(global_params: nn.ModelParams, data: ClientData,
                spec: ClientSpec, cfg: ClientConfig, round_idx: int,
                seed: int, use_pseudo: bool = True) -> ClientUpdate:
    """Run one client round and emit the update for the server.

    With use_pseudo off this is plain FedAvg-style local training:
    the supervised loss alone, over the labeled samples (single-label) or
    all samples (multi-label), with no teacher, partition or MixUp.

    The estimated class distribution counts true labels for identified
    classes and, for unknown classes, the distinct samples that received a
    confident pseudo label during the last epoch-equivalent window of
    training iterations (so zero local iterations means zero pseudo
    counts).
    """
    if len(data) == 0:
        raise ConfigError(f"client {spec.client_id}: empty dataset")
    cfg.validate()
    m = global_params.num_classes
    x, values, known = data.x, data.values, data.known
    rng = np.random.default_rng([seed, round_idx, spec.client_id])
    lr_t = cfg.lr_at(round_idx)

    student = teacher = global_params
    adam = nn.AdamState.init(student)
    # values are zero where not known; unknown-class counts come at the end
    edd = values.sum(axis=0)
    edd[list(spec.unknown)] = 0.0
    class_weights = compute_class_weights(values, known, spec.identified) \
        if spec.task == "multi" else None

    if use_pseudo:
        part = partition(x, global_params, spec.task, spec.unknown,
                         cfg.frac_l, cfg.frac_h)
        pool = np.sort(np.concatenate([part.low, part.mid]))
        if pool.size == 0 and cfg.local_iters > 0:
            raise ConfigError(f"client {spec.client_id}: no trainable "
                              "samples (frac_h leaves nothing below high "
                              "uncertainty)")
        candidates = ude_candidates(known, cfg)
    else:
        pool = np.flatnonzero(known.any(axis=1))

    epoch_iters = max(1, math.ceil(pool.size / cfg.batch_size))
    edd_window_start = max(0, cfg.local_iters - epoch_iters)
    # per sample: the positive classes of its latest confident pseudo
    # verdict inside the window
    tracked = np.zeros((len(data), m), dtype=bool)

    loss_sums = np.zeros(3)
    kept_total = 0
    for it in range(cfg.local_iters):
        if pool.size == 0:
            break
        if pool.size < cfg.batch_size:
            batch_idx = _draw_with_replacement(pool, cfg.batch_size, rng)
        else:
            batch_idx = rng.choice(pool, size=cfg.batch_size, replace=False)
        x_batch = x[batch_idx]
        x_weak = augment_weak_batch(x_batch, rng, cfg.augment)
        cache_w = nn.forward(student, x_weak)
        l_i, dl_w = loss_identified(cache_w.logits, values[batch_idx],
                                    known[batch_idx], spec.task, class_weights)
        grads = nn.backward(student, cache_w, dl_w)

        l_u = l_ude = 0.0
        if use_pseudo:
            x_strong = augment_strong_batch(x_batch, rng, cfg.augment)
            if spec.task == "single":
                dec = pseudo_single(teacher, x_weak, spec.unknown, cfg.tau)
            else:
                dec = pseudo_multi(teacher, x_weak, spec.unknown, cfg.tau_p,
                                   cfg.tau_n)
            # Labeled samples belong to the supervised loss, never the
            # pseudo loss.
            hits, negative = dec.masks(known[batch_idx])

            cache_s = nn.forward(student, x_strong)
            l_u, dl_s = loss_unknown(cache_s.logits, hits, spec.task, negative)
            grads = nn.add_params(grads, nn.backward(student, cache_s, dl_s))

            if cfg.ude_weight > 0:
                x_mix, y_mix, valid = ude_batch(x, values, known, part,
                                                teacher, spec, cfg, rng,
                                                candidates)
                if x_mix.shape[0] > 0:
                    cache_u = nn.forward(student, x_mix)
                    l_ude, dl_u = loss_ude(cache_u.logits, y_mix, spec.task,
                                           valid)
                    grads = nn.add_params(grads,
                                          nn.backward(student, cache_u, dl_u),
                                          scale=cfg.ude_weight)

        total = l_i + l_u + cfg.ude_weight * l_ude
        if not np.isfinite(total):
            raise NumericError(
                f"client {spec.client_id}: non-finite loss at round "
                f"{round_idx} iter {it} (L_I={l_i}, L_U={l_u}, L_UDE={l_ude})")
        student, adam = nn.adam_step(student, grads, adam, lr_t)
        loss_sums += (l_i, l_u, l_ude)
        if not use_pseudo:
            continue
        teacher = nn.ema_update(teacher, student, cfg.ema_decay)
        kept_total += int(hits.sum())
        if it >= edd_window_start:
            _track_verdicts(tracked, batch_idx, hits)

    edd += tracked.sum(axis=0)
    iters = max(cfg.local_iters, 1)
    stats = {
        "loss_identified": float(loss_sums[0] / iters),
        "loss_unknown": float(loss_sums[1] / iters),
        "loss_ude": float(loss_sums[2] / iters),
        "kept_pseudo": kept_total,
    }
    return ClientUpdate(client_id=spec.client_id, params=student,
                        n_samples=len(data), edd=edd, stats=stats)
