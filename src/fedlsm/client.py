"""One client's local round.

Training follows the teacher/student recipe: both start from the global
model, the student takes Adam steps on

    L = L_identified + L_unknown + ude_weight * L_ude

and the teacher tracks the student by exponential moving average.  The
teacher labels weakly augmented views; the student is penalized on
strongly augmented views.  Uncertain samples that the confidence filter
would otherwise ignore enter through MixUp pairs against confident ones.

A fedlsm step makes one teacher pass, over the batch's weak views and the
MixUp members' weak views; every step makes one student pass, over
[weak; strong; MixUp] rows (FedAvg: weak only).  The pass's link
(log-softmax or sigmoid) is taken once, and every loss returns (value,
dloss/dlogits) on its rows of the pass, so the step's gradient comes from
one backward() call.  A round trains in the student, teacher, gradient and
Adam buffers it owns, so a step builds no model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import (AugmentConfig, ClientData, ClientSpec,
                   augment_strong_batch, augment_weak_batch, check_task)
from .errors import ConfigError, NumericError
from .uncertainty import UncertaintyPartition, partition

UDE_CANDIDATES_PER_PAIR = 4
CLASS_WEIGHT_MAX = 100.0


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

    def validate(self) -> None:
        if self.local_iters < 0:
            raise ConfigError("client: local_iters must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("client: batch_size must be >= 1")
        if not 0.0 < self.tau_n < self.tau_p < 1.0:
            raise ConfigError("client: need 0 < tau_n < tau_p < 1")
        if not 0.0 < self.tau_ln < self.tau_lp < 1.0:
            raise ConfigError("client: need 0 < tau_ln < tau_lp < 1")
        if not 0.0 < self.tau_l < self.tau:
            raise ConfigError("client: need 0 < tau_l < tau")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("client: need tau in (0, 1)")
        if not 0 <= self.ude_batch_size <= self.batch_size:
            raise ConfigError("client: need 0 <= ude_batch_size <= batch_size")
        for name in ("mixup_alpha", "lr"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"client: {name} must be finite and > 0")
        for name in ("ude_weight", "lr_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"client: {name} must be finite and >= 0")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError("client: ema_decay must be in [0, 1]")
        if self.frac_l < 0 or self.frac_h < 0 or \
                not self.frac_l + self.frac_h <= 1:
            raise ConfigError("client: need frac_l + frac_h <= 1")
        self.augment.validate()

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


def pseudo_single(teacher: nn.ModelParams, x_weak: np.ndarray, unknown,
                  threshold) -> PseudoLabelDecision:
    """Hard pseudo labels from one teacher softmax pass on a (batch, d)
    matrix of weak views; threshold is a scalar or one value per row."""
    probs = nn.softmax(nn.forward(teacher, x_weak).logits)
    cols = np.zeros(probs.shape[1], dtype=bool)
    cols[list(unknown)] = True
    klass = probs.argmax(axis=1)
    kept = (probs[np.arange(len(probs)), klass] >= threshold) & cols[klass]
    return PseudoLabelDecision(kept=kept, klass=klass)


def pseudo_multi(teacher: nn.ModelParams, x_weak: np.ndarray, unknown,
                 tau_p, tau_n) -> PseudoLabelDecision:
    """Per-class positive/negative/abstain verdicts from one teacher
    sigmoid pass; tau_p and tau_n are scalars or one value per row."""
    if not np.all(np.less(tau_n, tau_p)):
        raise ConfigError(f"need tau_n < tau_p, got {tau_n} >= {tau_p}")
    probs = nn.sigmoid(nn.forward(teacher, x_weak).logits)
    cols = np.zeros(probs.shape[1], dtype=bool)
    cols[list(unknown)] = True
    # tau_n < tau_p: a class is never both confidently positive and negative
    state = (cols & (probs >= np.reshape(tau_p, (-1, 1)))).astype(np.int8)
    state -= cols & (probs <= np.reshape(tau_n, (-1, 1)))
    return PseudoLabelDecision(state=state)


def _softmax_ce(logits: np.ndarray, targets: np.ndarray, denom: int,
                log_p: np.ndarray | None = None):
    """Softmax cross-entropy against (n, m) target rows, over denom.

    Rows may be one-hot or soft; an all-zero row adds exactly nothing.
    The loss is summed row by row in index order, so it does not depend
    on how NumPy groups a reduction.  log_p, if given, is
    nn.log_softmax(logits).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if denom == 0:
        return 0.0, np.zeros_like(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if log_p is None:
        log_p = nn.log_softmax(logits)
    dlogits = np.exp(log_p) * targets.sum(axis=1, keepdims=True) - targets
    loss = 0.0 - np.cumsum((targets * log_p).sum(axis=1))[-1]
    return float(loss / denom), dlogits / denom


def _masked_bce(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray,
                denom: int, pos_weight: np.ndarray | None = None,
                probs: np.ndarray | None = None):
    """Binary cross-entropy on the entries where mask is set, over denom.
    Logs via softplus.

    Boolean (hard) targets take one softplus per entry, log(1 + e^-x) on
    positives and log(1 + e^x) on negatives: the same bits as the soft
    formula gives at targets 1.0 and 0.0.  pos_weight, for hard targets,
    scales the positive term per class.  probs, if given, is
    nn.sigmoid(logits).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if denom == 0:
        return 0.0, np.zeros_like(logits)
    targets = np.asarray(targets)
    if targets.dtype == bool:
        per_entry = np.logaddexp(0.0, np.where(targets, -logits, logits))
    else:
        targets = targets.astype(np.float64, copy=False)
        per_entry = -(targets * -np.logaddexp(0.0, -logits)
                      + (1.0 - targets) * -np.logaddexp(0.0, logits))
    diff = (nn.sigmoid(logits) if probs is None else probs) - targets
    if pos_weight is not None:
        w = np.where(targets, pos_weight, 1.0)
        per_entry *= w
        diff *= w
    return float((mask * per_entry).sum() / denom), mask * diff / denom


def loss_identified(logits: np.ndarray, values: np.ndarray, known: np.ndarray,
                    task: str, class_weights: np.ndarray | None = None,
                    link: np.ndarray | None = None):
    """Supervised loss on known labels -> (loss, dloss/dlogits).

    values and known are the batch's (n, m) label values and trust mask;
    values are zero wherever known is not set.  Single-label: mean
    cross-entropy over the labeled samples.  Multi-label: mean weighted
    BCE over the known (sample, class) pairs.  Unlabeled rows and unknown
    pairs carry exactly zero gradient.  link, if given, is the logits'
    nn.log_softmax (single-label) or nn.sigmoid (multi-label); all three
    losses take it, so one pass's link can serve each loss's rows.
    """
    check_task(task)
    if task == "single":
        return _softmax_ce(logits, values, np.count_nonzero(known.any(axis=1)),
                           link)
    return _masked_bce(logits, values == 1.0, known, np.count_nonzero(known),
                       class_weights, link)


def loss_unknown(logits: np.ndarray, hits: np.ndarray, task: str,
                 negative: np.ndarray | None = None,
                 link: np.ndarray | None = None):
    """Pseudo-label loss on strong views -> (loss, dloss/dlogits).

    hits is the (n, m) matrix of confident positive pseudo labels.
    Single-label: cross-entropy against the one-hot kept rows, normalized
    by the kept count.  Multi-label: hits pull log(sigma) up and the
    `negative` verdicts pull log(1 - sigma), normalized by the batch size.
    Abstaining entries contribute nothing.
    """
    check_task(task)
    if task == "single":
        return _softmax_ce(logits, hits, np.count_nonzero(hits), link)
    return _masked_bce(logits, hits, hits | negative, len(logits), None, link)


def loss_ude(logits: np.ndarray, targets: np.ndarray, task: str,
             valid: np.ndarray | None = None, link: np.ndarray | None = None):
    """Cross-entropy against soft MixUp labels -> (loss, dloss/dlogits).

    Multi-label entries where either MixUp member abstained are excluded
    via `valid`.
    """
    check_task(task)
    if task == "single":
        return _softmax_ce(logits, targets, len(logits), link)
    mask = np.ones(np.shape(targets), dtype=bool) if valid is None else valid
    return _masked_bce(logits, targets, mask, np.count_nonzero(mask), None,
                       link)


def ude_candidates(known: np.ndarray, part: UncertaintyPartition,
                   cfg: ClientConfig) -> int:
    """MixUp candidate pairs per batch: none when the partition has no
    confident or no uncertain rows; else ude_batch_size when some class is
    known on every row (then every pair is usable), else
    UDE_CANDIDATES_PER_PAIR times as many."""
    if len(part.low) == 0 or len(part.high) == 0:
        return 0
    per_pair = 1 if known.all(axis=0).any() else UDE_CANDIDATES_PER_PAIR
    return per_pair * cfg.ude_batch_size


def draw_mix(x: np.ndarray, part: UncertaintyPartition, n: int,
             cfg: ClientConfig, rng: np.random.Generator):
    """Draw n MixUp candidate pairs of (confident, uncertain) rows of x ->
    (members, weak views, mixing weights).

    members holds n confident then n uncertain row indices.  The stream
    order is the low members, the high members, their 2n weak views (the
    same stream as the low members' views, then the high members'), then
    the n weights.  n = 0 draws nothing: zero-size draws leave the
    generator as it was.
    """
    members = np.concatenate([_draw_with_replacement(part.low, n, rng),
                              _draw_with_replacement(part.high, n, rng)])
    views = augment_weak_batch(x[members], rng, cfg.augment)
    return members, views, rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=n)


def ude_batch(data: ClientData, members: np.ndarray, lams: np.ndarray,
              pos: np.ndarray, neg: np.ndarray, cfg: ClientConfig):
    """Up to ude_batch_size MixUp pairs of (confident, uncertain) rows.

    members and lams are draw_mix's candidate pairs of rows of the
    client's data and their mixing weights; pos and neg are the teacher's
    verdict masks on the members, taken at the relaxed thresholds.
    Confident and uncertain members alike take their known labels first
    and, elsewhere, those verdicts, so a pseudo label only names an
    unknown class.  A pair is valid on the classes where both members are
    usable and is usable when it has one such class.  The first
    ude_batch_size usable candidates come back in draw order, so fewer
    pairs may come back.  A kept pair with weight lam mixes to
    lam * confident + (1 - lam) * uncertain, inputs and labels alike.
    Returns (inputs, soft labels, valid-entry mask).
    """
    n = len(lams)
    y = np.where(pos, 1.0, data.values[members])
    ok = data.known[members] | pos | neg
    pair_ok = ok[:n] & ok[n:]
    keep = np.flatnonzero(pair_ok.any(axis=1))[:cfg.ude_batch_size]
    lam = lams[keep, None]
    x_mix = lam * data.x[members[keep]] \
        + (1.0 - lam) * data.x[members[n + keep]]
    y_mix = lam * y[keep] + (1.0 - lam) * y[n + keep]
    return x_mix, y_mix, pair_ok[keep]


def compute_class_weights(values: np.ndarray, known: np.ndarray,
                          identified) -> np.ndarray:
    """Positive-term BCE weights n_neg/n_pos from known labels, in
    [1, CLASS_WEIGHT_MAX].

    values and known are (n, m) label values and trust mask; classes
    outside `identified` get weight 1.
    """
    n_pos = np.where(known, values, 0.0).sum(axis=0)
    n_neg = known.sum(axis=0) - n_pos
    ratio = np.clip(n_neg / np.maximum(n_pos, 1.0), 1.0, CLASS_WEIGHT_MAX)
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

    Every mode takes one step path: one student forward and backward over
    the batch's weak views, plus, with use_pseudo on, its strong views and
    MixUp rows (none when ude_weight is 0).  With use_pseudo off this is
    plain FedAvg-style local training: the supervised loss alone, over the
    labeled samples (single-label) or all samples (multi-label), with no
    teacher, partition or MixUp.

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

    # The round's own buffers: the server's model is never written to.
    student = global_params.like(global_params.flat.copy())
    teacher = global_params.like(global_params.flat.copy()) \
        if use_pseudo else None
    grads = global_params.like(np.empty_like(global_params.flat))
    adam = nn.AdamState.init(student)
    # values are zero where not known; unknown-class counts come at the end
    edd = values.sum(axis=0)
    edd[list(spec.unknown)] = 0.0

    b = cfg.batch_size
    labeled = known.any(axis=1)
    if use_pseudo:
        part = partition(x, global_params, spec.task, spec.unknown,
                         cfg.frac_l, cfg.frac_h)
        pool = np.sort(np.concatenate([part.low, part.mid]))
        if pool.size == 0 and cfg.local_iters > 0:
            raise ConfigError(f"client {spec.client_id}: no trainable "
                              "samples (frac_h leaves nothing below high "
                              "uncertainty)")
        # MixUp off is zero candidate pairs: nothing drawn, no rows.
        n_mix = ude_candidates(known, part, cfg) if cfg.ude_weight > 0 else 0
    else:
        pool, n_mix = np.flatnonzero(labeled), 0
    # Per teacher row: the pseudo-label thresholds on the batch's weak
    # views, then the relaxed ones on the 2 * n_mix MixUp members.
    split = [b, 2 * n_mix]

    # Every task choice is made once per round: the class weights, the link
    # and verdicts(x_teacher, rows), one teacher pass on weak views of the
    # client's rows -> the (positive, negative) verdict masks.
    if spec.task == "single":
        class_weights, link_of = None, nn.log_softmax
        hi = np.repeat([cfg.tau, cfg.tau_l], split)

        def verdicts(x_teacher, rows):
            dec = pseudo_single(teacher, x_teacher, spec.unknown, hi)
            # Labeled samples belong to the supervised loss, never the
            # pseudo loss.
            kept = dec.kept & ~labeled[rows]
            pos = kept[:, None] & (dec.klass[:, None] == np.arange(m))
            return pos, kept[:, None] & ~pos
    else:
        class_weights = compute_class_weights(values, known, spec.identified)
        link_of = nn.sigmoid
        hi = np.repeat([cfg.tau_p, cfg.tau_lp], split)
        lo = np.repeat([cfg.tau_n, cfg.tau_ln], split)

        def verdicts(x_teacher, rows):
            dec = pseudo_multi(teacher, x_teacher, spec.unknown, hi, lo)
            return dec.state == 1, dec.state == -1

    epoch_iters = max(1, math.ceil(pool.size / b))
    edd_window_start = max(0, cfg.local_iters - epoch_iters)
    # per sample: the positive classes of its latest confident pseudo
    # verdict inside the window
    tracked = np.zeros((len(data), m), dtype=bool)

    sum_i = sum_u = sum_ude = 0.0
    kept_total = 0
    for it in range(cfg.local_iters):
        if pool.size == 0:
            break
        if pool.size < b:
            batch_idx = _draw_with_replacement(pool, b, rng)
        else:
            batch_idx = rng.choice(pool, size=b, replace=False)
        x_batch = x[batch_idx]
        x_student = x_weak = augment_weak_batch(x_batch, rng, cfg.augment)
        if use_pseudo:
            # Every random number of the step is drawn before any pass.
            x_strong = augment_strong_batch(x_batch, rng, cfg.augment)
            members, views, lams = draw_mix(x, part, n_mix, cfg, rng)
            # One teacher pass labels the weak views and the MixUp members.
            pos, neg = verdicts(np.concatenate([x_weak, views]),
                                np.concatenate([batch_idx, members]))
            hits, negative = pos[:b], neg[:b]
            x_mix, y_mix, valid = ude_batch(data, members, lams, pos[b:],
                                            neg[b:], cfg)
            x_student = np.concatenate([x_weak, x_strong, x_mix])

        # One student pass, link and backward over the student rows, each
        # loss on its rows.
        cache = nn.forward(student, x_student)
        logits = cache.logits
        link = link_of(logits)
        l_i, dl = loss_identified(logits[:b], values[batch_idx],
                                  known[batch_idx], spec.task, class_weights,
                                  link[:b])
        l_u = l_ude = 0.0
        if use_pseudo:
            l_u, dl_s = loss_unknown(logits[b:2 * b], hits, spec.task,
                                     negative, link[b:2 * b])
            l_ude, dl_u = loss_ude(logits[2 * b:], y_mix, spec.task, valid,
                                   link[2 * b:])
            dl = np.concatenate([dl, dl_s, cfg.ude_weight * dl_u])
        nn.backward(student, cache, dl, out=grads)

        total = l_i + l_u + cfg.ude_weight * l_ude
        if not np.isfinite(total):
            raise NumericError(
                f"client {spec.client_id}: non-finite loss at round "
                f"{round_idx} iter {it} (L_I={l_i}, L_U={l_u}, L_UDE={l_ude})")
        nn.adam_step(student, grads, adam, lr_t, out=(student, adam))
        sum_i += l_i
        sum_u += l_u
        sum_ude += l_ude
        if not use_pseudo:
            continue
        nn.ema_update(teacher, student, cfg.ema_decay, out=teacher)
        kept_total += int(hits.sum())
        if it >= edd_window_start:
            _track_verdicts(tracked, batch_idx, hits)

    edd += tracked.sum(axis=0)
    iters = max(cfg.local_iters, 1)
    stats = {
        "loss_identified": sum_i / iters,
        "loss_unknown": sum_u / iters,
        "loss_ude": sum_ude / iters,
        "kept_pseudo": kept_total,
    }
    return ClientUpdate(client_id=spec.client_id, params=student,
                        n_samples=len(data), edd=edd, stats=stats)
