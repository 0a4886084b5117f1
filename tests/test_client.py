"""Local training: pseudo labels, losses, MixUp batches, EDD counting."""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from fedlsm import client, nn
from fedlsm.client import (UDE_CANDIDATES_PER_PAIR, ClientConfig,
                           ClientUpdate, PseudoLabelDecision,
                           _draw_with_replacement, _track_verdicts,
                           compute_class_weights, draw_mix, local_train,
                           loss_identified, loss_ude, loss_unknown,
                           pseudo_multi, pseudo_single, ude_batch,
                           ude_candidates)
from fedlsm.data import (AugmentConfig, ClientData, ClientSpec,
                         FederationConfig, augment_strong_batch,
                         augment_weak_batch, gen_federation, unmask_labels)
from fedlsm.errors import ConfigError, NumericError, ShapeError
from fedlsm.server import run_federation
from fedlsm.uncertainty import UncertaintyPartition, partition

LN2 = math.log(2.0)


def probe_net(m: int, scale: float = 10.0) -> nn.ModelParams:
    """Net whose logits equal scale * tanh(x), coordinate by coordinate.

    Feeding arctanh(L / scale) produces exactly the logits L, which makes
    teacher confidence controllable in tests.
    """
    return nn.ModelParams.from_arrays(layers=[(np.eye(m), np.zeros(m))],
                                      proxies=scale * np.eye(m),
                                      proxy_bias=np.zeros(m))


def inputs_for_logits(logits, scale: float = 10.0) -> np.ndarray:
    return np.arctanh(np.asarray(logits, dtype=np.float64) / scale)


def unit_label(m, c):
    """(values, known mask) of one sample labeled with class c."""
    values = np.zeros(m)
    values[c] = 1.0
    return values, np.ones(m, dtype=bool)


def unlabeled(m):
    return np.zeros(m), np.zeros(m, dtype=bool)


def stacked(records):
    """(values, known) arrays of a list of (values, known mask) labels."""
    return (np.stack([values for values, _ in records]),
            np.stack([known for _, known in records]))


def pseudo_hits(kept, klass, m):
    """(n, m) one-hot rows of the kept single-label pseudo labels."""
    return np.asarray(kept)[:, None] & (np.asarray(klass)[:, None]
                                         == np.arange(m))


def client_arrays(samples):
    """(x, values, known) arrays of a list of (x, label) rows."""
    return (np.stack([x for x, _ in samples]),
            *stacked([label for _, label in samples]))


def mix_batch(x, values, known, part, teacher, spec, cfg, rng):
    """One MixUp batch as local_train builds it: draw the candidate pairs,
    label the members' weak views in one teacher pass at the relaxed
    thresholds, then ude_batch."""
    members, views, lams = draw_mix(x, part, ude_candidates(known, part, cfg),
                                    cfg, rng)
    if spec.task == "single":
        dec = pseudo_single(teacher, views, spec.unknown, cfg.tau_l)
        kept = dec.kept & ~known.any(axis=1)[members]
        pos = pseudo_hits(kept, dec.klass, known.shape[1])
        neg = kept[:, None] & ~pos
    else:
        dec = pseudo_multi(teacher, views, spec.unknown, cfg.tau_lp,
                           cfg.tau_ln)
        pos, neg = dec.state == 1, dec.state == -1
    return ude_batch(ClientData(x, values, known), members, lams, pos, neg,
                     cfg)


# The verdict rule and its masks as they were before local_train made its
# task choice once per round, verbatim: parent_decide was client._decide and
# parent_masks was the PseudoLabelDecision.masks method.  The parent
# references below use them.

def parent_decide(logits: np.ndarray, unknown, task: str, hi,
                  lo) -> PseudoLabelDecision:
    """The confident-verdict rule on teacher logits.

    Single-label: keep a row whose max softmax probability is at least hi
    and whose argmax class is locally unknown.  Multi-label: per unknown
    class, +1 where the sigmoid is at least hi, -1 where at most lo.  The
    thresholds are scalars or one value per row.
    """
    cols = np.zeros(logits.shape[1], dtype=bool)
    cols[list(unknown)] = True
    if task == "single":
        probs = nn.softmax(logits)
        klass = probs.argmax(axis=1)
        kept = (probs[np.arange(len(probs)), klass] >= hi) & cols[klass]
        return PseudoLabelDecision(kept=kept, klass=klass)
    probs = nn.sigmoid(logits)
    # lo < hi, so a class is never both confidently positive and negative
    state = (cols & (probs >= np.reshape(hi, (-1, 1)))).astype(np.int8)
    state -= cols & (probs <= np.reshape(lo, (-1, 1)))
    return PseudoLabelDecision(state=state)


def parent_masks(self, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) (n, m) masks of the verdicts on rows with
    trust mask `known`.  A kept single-label verdict counts only on a
    row with no known label: positive on klass, negative elsewhere.
    Multi-label verdicts pass through."""
    if self.state is not None:
        return self.state == 1, self.state == -1
    kept = self.kept & ~known.any(axis=1)
    pos = kept[:, None] & (self.klass[:, None]
                           == np.arange(known.shape[1]))
    return pos, kept[:, None] & ~pos


# ------------------------------------------------------------- pseudo labels

def test_pseudo_single_confidence_gate():
    teacher = probe_net(4)
    # logits (5,0,0,0): max prob ~0.980; (2.5,0,0,0): ~0.802
    x = inputs_for_logits([[5.0, 0, 0, 0],
                           [2.5, 0, 0, 0],
                           [0, 0, 5.0, 0]])
    dec = pseudo_single(teacher, x, unknown=(0, 2), threshold=0.95)
    assert dec.kept.tolist() == [True, False, True]
    assert dec.klass.tolist() == [0, 0, 2]


def test_pseudo_single_rejects_identified_argmax():
    teacher = probe_net(4)
    x = inputs_for_logits([[5.0, 0, 0, 0]])
    dec = pseudo_single(teacher, x, unknown=(1, 2), threshold=0.95)
    assert not dec.kept[0]


def test_pseudo_multi_three_way_verdicts():
    teacher = probe_net(4)
    # sigmoids: 3 -> 0.953, -6 -> 0.0025, 0 -> 0.5
    x = inputs_for_logits([[3.0, -6.0, 0.0, 3.0]])
    dec = pseudo_multi(teacher, x, unknown=(0, 1, 2), tau_p=0.85, tau_n=5e-3)
    assert dec.state[0].tolist() == [1, -1, 0, 0]  # class 3 is identified


def test_pseudo_labels_take_a_matrix_not_one_vector():
    teacher, x = probe_net(3), np.zeros(3)
    with pytest.raises(ShapeError, match="2-D"):
        pseudo_single(teacher, x, (1, 2), 0.9)
    with pytest.raises(ShapeError, match="2-D"):
        pseudo_multi(teacher, x, (1, 2), 0.9, 0.1)


def test_pseudo_multi_threshold_order_checked():
    with pytest.raises(ConfigError):
        pseudo_multi(probe_net(2), np.zeros((1, 2)), (0,), tau_p=0.2,
                     tau_n=0.3)


# ------------------------------------------------------------------- losses

def test_loss_identified_single_oracle():
    logits = np.array([[0.0, 0.0]])
    loss, dlogits = loss_identified(logits, *stacked([unit_label(2, 0)]), "single")
    assert loss == pytest.approx(LN2)
    assert np.allclose(dlogits, [[-0.5, 0.5]])


def test_loss_identified_single_skips_unlabeled_rows():
    logits = np.array([[3.0, -1.0], [0.0, 0.0]])
    loss, dlogits = loss_identified(logits, *stacked([unlabeled(2), unit_label(2, 1)]),
                                    "single")
    assert (dlogits[0] == 0).all()
    assert loss == pytest.approx(LN2)
    loss0, dl0 = loss_identified(logits, *stacked([unlabeled(2), unlabeled(2)]),
                                 "single")
    assert loss0 == 0.0 and (dl0 == 0).all()


def test_loss_identified_multi_oracle_and_weights():
    logits = np.zeros((1, 2))
    rec = (np.array([1.0, 0.0]), np.array([True, False]))
    loss, dlogits = loss_identified(logits, *stacked([rec]), "multi")
    assert loss == pytest.approx(LN2)
    assert np.allclose(dlogits, [[-0.5, 0.0]])
    loss_w, dl_w = loss_identified(logits, *stacked([rec]), "multi",
                                   class_weights=np.array([3.0, 1.0]))
    assert loss_w == pytest.approx(3 * LN2)
    assert np.allclose(dl_w, [[-1.5, 0.0]])


def test_loss_unknown_single_oracle_and_denominator():
    logits = np.zeros((2, 2))
    hits = pseudo_hits([True, False], [1, 0], 2)
    loss, dlogits = loss_unknown(logits, hits, "single")
    assert loss == pytest.approx(LN2)
    assert np.allclose(dlogits, [[0.5, -0.5], [0.0, 0.0]])


def test_loss_unknown_single_no_kept_is_zero():
    hits = pseudo_hits([False], [0], 2)
    loss, dlogits = loss_unknown(np.zeros((1, 2)), hits, "single")
    assert loss == 0.0 and (dlogits == 0).all()


def test_loss_unknown_multi_oracle():
    state = np.array([[1, -1, 0]])
    loss, dlogits = loss_unknown(np.zeros((1, 3)), state == 1, "multi",
                                 state == -1)
    assert loss == pytest.approx(2 * LN2)
    assert np.allclose(dlogits, [[-0.5, 0.5, 0.0]])


def test_loss_ude_single_oracle():
    targets = np.array([[0.3, 0.7]])
    loss, dlogits = loss_ude(np.zeros((1, 2)), targets, "single")
    assert loss == pytest.approx(LN2)
    assert np.allclose(dlogits, [[0.2, -0.2]])


def test_loss_ude_multi_respects_validity():
    targets = np.array([[0.4, 0.9]])
    valid = np.array([[True, False]])
    loss, dlogits = loss_ude(np.zeros((1, 2)), targets, "multi", valid)
    assert loss == pytest.approx(LN2)
    assert np.allclose(dlogits, [[0.1, 0.0]])


@pytest.mark.parametrize("task", ["singel", "Multi", ""])
def test_losses_reject_an_unknown_task(task):
    # A misspelled task must not fall through to the multi-label BCE.
    logits, known = np.zeros((2, 3)), np.ones((2, 3), dtype=bool)
    calls = [lambda: loss_identified(logits, np.eye(3)[:2], known, task),
             lambda: loss_unknown(logits, np.eye(3)[:2] == 1, task, ~known),
             lambda: loss_ude(logits, np.full((2, 3), 1 / 3), task, known)]
    for call in calls:
        with pytest.raises(ConfigError, match=f"task: must be 'single' or "
                                              f"'multi', got {task!r}"):
            call()


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("seed", range(3))
def test_losses_given_the_pass_link_give_the_same_bits(task, seed):
    # local_train takes one link over the whole student pass and hands
    # each loss its rows; both links work row by row, so each loss must
    # give the bits it computes from its own logits.
    rng = np.random.default_rng(seed)
    b, n_mix, m = 9, 3, 7
    logits = rng.normal(scale=[[1.0]] * 12 + [[40.0]] * 9,
                        size=(2 * b + n_mix, m))
    logits[rng.random(logits.shape) < 0.05] = 0.0
    link = nn.log_softmax(logits) if task == "single" else nn.sigmoid(logits)
    known = rng.random((b, m)) < 0.4
    values = np.where(known, rng.random((b, m)) < 0.5, False) * 1.0
    hits = rng.random((b, m)) < 0.2
    negative = ~hits & (rng.random((b, m)) < 0.5)
    targets = rng.dirichlet(np.ones(m), size=n_mix)
    valid = rng.random((n_mix, m)) < 0.7
    weights = 1.0 + rng.random(m) if task == "multi" else None
    rows = [(loss_identified, slice(0, b), (values, known, task, weights)),
            (loss_unknown, slice(b, 2 * b), (hits, task, negative)),
            (loss_ude, slice(2 * b, None), (targets, task, valid))]
    for loss, r, args in rows:
        want = loss(logits[r], *args)
        got = loss(logits[r], *args, link=link[r])
        assert (type(got[0]), struct.pack("<d", got[0])) == \
            (type(want[0]), struct.pack("<d", want[0]))
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("task", ["single", "multi"])
def test_loss_gradients_match_finite_differences(task):
    rng = np.random.default_rng(5)
    params = nn.init_params([3, 6], 4, seed=1)
    batch = rng.normal(size=(3, 3))
    if task == "single":
        labels = [unit_label(4, 1), unlabeled(4), unit_label(4, 3)]
    else:
        labels = [((rng.random(4) < 0.5).astype(float), rng.random(4) < 0.7)
                  for _ in range(3)]
        labels = [(np.where(known, values, 0.0), known)
                  for values, known in labels]
    err = nn.gradcheck(params, batch,
                       lambda z: loss_identified(z, *stacked(labels), task))
    assert err < 1e-5


def test_pseudo_and_mix_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    params = nn.init_params([3, 5], 3, seed=2)
    batch = rng.normal(size=(2, 3))
    hits = pseudo_hits([True, True], [2, 0], 3)
    assert nn.gradcheck(params, batch,
                        lambda z: loss_unknown(z, hits, "single")) < 1e-5
    state = np.array([[1, -1, 0], [0, 1, -1]])
    assert nn.gradcheck(params, batch,
                        lambda z: loss_unknown(z, state == 1, "multi",
                                               state == -1)) < 1e-5
    targets = rng.dirichlet(np.ones(3), size=2)
    assert nn.gradcheck(params, batch,
                        lambda z: loss_ude(z, targets, "single")) < 1e-5


# -------------------------------------------------------------------- mixup

def _mix_setup(task, confident_high, high_class=2):
    m = 3
    teacher = probe_net(m)
    if task == "single":
        high_logits = np.eye(m)[high_class] * (6.0 if confident_high else 0.0)
    else:
        # class 0 known on the low member; teacher: positive class 1,
        # abstain class 2 on both members
        high_logits = [0.0, 6.0, 0.0]
    samples = [
        (inputs_for_logits([0.0, 6.0, 0.0]),
         unit_label(m, 1) if task == "single" else
         (np.array([1.0, 0.0, 0.0]), np.array([True, False, False]))),
        (inputs_for_logits(high_logits), unlabeled(m)),
    ]
    part = UncertaintyPartition(low=np.array([0]), mid=np.array([]),
                                high=np.array([1]),
                                entropy=np.zeros(2))
    spec = ClientSpec(client_id=0, identified=(0,), unknown=(1, 2),
                      task=task)
    cfg = ClientConfig(ude_batch_size=3, mixup_alpha=0.4,
                       augment=AugmentConfig(sigma_weak=1e-4))
    return samples, part, teacher, spec, cfg


def test_ude_batch_single_builds_convex_pairs():
    samples, part, teacher, spec, cfg = _mix_setup("single", True)
    xs, ys, valid = mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
                              np.random.default_rng(0))
    assert xs.shape[0] == 3 and valid.shape == (3, 3) and valid.all()
    for y in ys:
        assert y.sum() == pytest.approx(1.0)
        # mix of one-hot class 1 (labeled low) and pseudo class 2 (high)
        assert y[0] == 0.0
        assert 0.0 <= y[2] <= 1.0


def test_ude_batch_single_rejects_unconfident_members():
    samples, part, teacher, spec, cfg = _mix_setup("single", False)
    xs, ys, valid = mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
                              np.random.default_rng(0))
    assert xs.shape[0] == 0


def test_ude_batch_never_pseudo_labels_an_identified_class():
    # the teacher is confident on the unlabeled member, but on class 0,
    # which the client identifies: no pseudo label, so no usable pair
    samples, part, teacher, spec, cfg = _mix_setup("single", True,
                                                   high_class=0)
    xs, ys, valid = mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
                              np.random.default_rng(0))
    assert xs.shape[0] == 0 and valid.shape == (0, 3)


def test_a_labeled_row_never_adds_to_kept_pseudo():
    # The teacher is confident on unknown class 2 on every row, and the
    # step keeps that verdict on an unlabeled row only.
    m, n = 3, 20
    x = inputs_for_logits([[0.0, 0.0, 8.0]] * n)
    spec = ClientSpec(client_id=0, identified=(0,), unknown=(1, 2),
                      task="single")
    cfg = fast_cfg(local_iters=3)

    def kept_pseudo(labels):
        data = ClientData(x, *stacked(labels))
        return local_train(probe_net(m), data, spec, cfg, round_idx=0,
                           seed=3).stats["kept_pseudo"]

    every_row = cfg.local_iters * cfg.batch_size
    assert kept_pseudo([unlabeled(m)] * n) == every_row
    assert kept_pseudo([unit_label(m, 0)] * n) == 0
    assert 0 < kept_pseudo([unit_label(m, 0), unlabeled(m)] * (n // 2)) \
        < every_row


def test_ude_batch_multi_validity_mask():
    samples, part, teacher, spec, cfg = _mix_setup("multi", True)
    xs, ys, valid = mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
                              np.random.default_rng(0))
    assert xs.shape[0] == 3
    # known class 0 only on the low member; the high member must earn it
    # from the teacher, which says positive class 1 and abstain class 2
    assert valid[:, 1].all()
    assert not valid[:, 2].any()


def test_ude_batch_deterministic():
    samples, part, teacher, spec, cfg = _mix_setup("single", True)
    a = mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
                  np.random.default_rng(7))
    b = mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
                  np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("setup", [
    lambda: _mix_setup("single", True),
    lambda: _mix_setup("single", False),  # no usable pair
    lambda: _mix_setup("single", True, high_class=0),  # no usable pair
    lambda: _mix_setup("multi", True),
    lambda: reference_setup("single", 0),
    lambda: reference_setup("multi", 1),
])
def test_ude_batch_makes_one_teacher_pass(monkeypatch, setup):
    samples, part, teacher, spec, cfg = setup()
    calls = []
    forward = nn.forward
    monkeypatch.setattr(nn, "forward",
                        lambda *a, **kw: calls.append(1) or forward(*a, **kw))
    mix_batch(*client_arrays(samples), part, teacher, spec, cfg,
              np.random.default_rng(5))
    assert len(calls) == 1


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("seed", range(3))
def test_ude_batch_with_an_always_known_class_draws_one_plain_pass(task,
                                                                    seed):
    dataset, part, teacher, spec, cfg = reference_setup(task, seed)
    x, values, known = client_arrays(dataset)
    if task == "single":  # every row labeled
        values = np.eye(values.shape[1])[np.arange(len(x)) % 2 * 2]
        known[:] = True
    else:  # class 0 known on every row
        known[:, 0] = True
    rng_a = np.random.default_rng(seed)
    got = mix_batch(x, values, known, part, teacher, spec, cfg, rng_a)

    # The draws of round one of the earlier retry loop, verbatim.
    rng = np.random.default_rng(seed)
    need = cfg.ude_batch_size
    hi, lo = (cfg.tau_l, None) if spec.task == "single" \
        else (cfg.tau_lp, cfg.tau_ln)
    low_idx = _draw_with_replacement(part.low, need, rng)
    high_idx = _draw_with_replacement(part.high, need, rng)
    members = np.concatenate([low_idx, high_idx])
    logits = nn.forward(teacher, augment_weak_batch(
        x[members], rng, cfg.augment)).logits
    pos, neg = parent_masks(parent_decide(logits, spec.unknown, spec.task,
                                          hi, lo), known[members])
    y = np.where(pos, 1.0, values[members])
    ok = known[members] | pos | neg
    lams = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=need)
    pair_ok = ok[:need] & ok[need:]
    keep = np.flatnonzero(pair_ok.any(axis=1))
    lam = lams[keep, None]
    x_mix = lam * x[low_idx[keep]] + (1.0 - lam) * x[high_idx[keep]]
    y_mix = lam * y[keep] + (1.0 - lam) * y[need + keep]

    assert keep.size == need
    assert got[0].tobytes() == x_mix.tobytes()
    assert got[1].tobytes() == y_mix.tobytes()
    assert got[2].tobytes() == pair_ok[keep].tobytes()
    assert rng_a.bit_generator.state == rng.bit_generator.state


def test_ude_batch_returns_first_usable_candidates_in_draw_order():
    # Low rows are labeled; of the unlabeled high rows only row 4 is
    # confidently pseudo-labeled, so a pair is usable iff it draws row 4.
    m, n_high = 3, 6
    high_logits = [[0.0, 0.0, 6.0]] + [[0.0, 0.0, 0.0]] * (n_high - 1)
    samples = [(inputs_for_logits([6.0, 0.0, 0.0]), unit_label(m, 0))] * 4
    samples += [(inputs_for_logits(lg), unlabeled(m)) for lg in high_logits]
    part = UncertaintyPartition(low=np.arange(4), mid=np.array([]),
                                high=np.arange(4, 4 + n_high),
                                entropy=np.zeros(len(samples)))
    spec = ClientSpec(client_id=0, identified=(0,), unknown=(1, 2),
                      task="single")
    cfg = ClientConfig(ude_batch_size=3, mixup_alpha=0.4,
                       augment=AugmentConfig(sigma_weak=1e-4))
    x = client_arrays(samples)[0]
    n = UDE_CANDIDATES_PER_PAIR * cfg.ude_batch_size
    sizes = set()
    for seed in range(12):
        xs, ys, valid = mix_batch(*client_arrays(samples), part,
                                  probe_net(m), spec, cfg,
                                  np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        low_idx = _draw_with_replacement(part.low, n, rng)
        high_idx = _draw_with_replacement(part.high, n, rng)
        rng.standard_normal((2 * n, x.shape[1]))  # the weak views
        lams = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=n)[:, None]
        first = np.flatnonzero(high_idx == 4)[:cfg.ude_batch_size]
        want = lams[first] * x[low_idx[first]] \
            + (1.0 - lams[first]) * x[high_idx[first]]
        assert xs.shape[0] <= cfg.ude_batch_size
        assert xs.tobytes() == want.tobytes()
        assert valid.shape == (len(first), m) and valid.all()
        sizes.add(len(first))
    # both full and short batches occurred
    assert cfg.ude_batch_size in sizes and min(sizes) < cfg.ude_batch_size


# ------------------------------------------------------------- local rounds

def small_federation(task="single", seed=3):
    cfg = FederationConfig(n_clients=2, n_classes=3, classes_per_client=2,
                           feature_dim=4, samples_per_client=30, n_val=10,
                           n_test=20, task=task, seed=seed)
    return gen_federation(cfg)


def fast_cfg(**kw):
    base = dict(local_iters=4, batch_size=8, lr=3e-3, ude_batch_size=2)
    base.update(kw)
    return ClientConfig(**base)


def test_local_train_zero_iters_keeps_params_and_counts_labels():
    fed = small_federation()
    params = nn.init_params([4, 6], 3, seed=0)
    upd = local_train(params, fed.clients[0], fed.specs[0],
                      fast_cfg(local_iters=0), round_idx=0, seed=11)
    assert np.array_equal(upd.params.proxies, params.proxies)
    data = fed.clients[0]
    labeled = [values for values, known_mask in zip(data.values, data.known)
               if known_mask.any()]
    for c in fed.specs[0].identified:
        expected = sum(1 for values in labeled if np.argmax(values) == c)
        assert upd.edd[c] == expected
    for c in fed.specs[0].unknown:
        assert upd.edd[c] == 0.0


def test_local_train_deterministic():
    fed = small_federation()
    params = nn.init_params([4, 6], 3, seed=0)
    a = local_train(params, fed.clients[0], fed.specs[0], fast_cfg(),
                    round_idx=2, seed=5)
    b = local_train(params, fed.clients[0], fed.specs[0], fast_cfg(),
                    round_idx=2, seed=5)
    c = local_train(params, fed.clients[0], fed.specs[0], fast_cfg(),
                    round_idx=3, seed=5)
    assert np.array_equal(a.params.proxies, b.params.proxies)
    assert np.array_equal(a.edd, b.edd)
    assert not np.array_equal(a.params.proxies, c.params.proxies)


def test_local_train_never_reads_ground_truth():
    # A client's data carries no truth field, and the fedlsm round loop
    # trains identically when the federation's ground truth is scrambled.
    assert set(vars(small_federation().clients[0])) == {"x", "values",
                                                        "known"}
    fed = small_federation()
    scrambled = replace(fed, truth=[np.roll(t, 1, axis=1) for t in fed.truth])
    a = run_federation(fed, fast_cfg(), rounds=2, mode="fedlsm", seed=9,
                       hidden_dims=(6,))
    b = run_federation(scrambled, fast_cfg(), rounds=2, mode="fedlsm",
                       seed=9, hidden_dims=(6,))
    assert np.array_equal(a.params.proxies, b.params.proxies)
    assert np.array_equal(a.params.layers[0][0], b.params.layers[0][0])
    assert [r.client_stats for r in a.reports] == \
        [r.client_stats for r in b.reports]


def test_local_train_counts_confident_pseudo_labels():
    fed = small_federation()
    spec, dataset = fed.specs[0], fed.clients[0]
    params = nn.init_params([4, 6], 3, seed=0)
    # threshold low enough that the untrained teacher clears it
    cfg = fast_cfg(tau=0.4, tau_l=0.05, local_iters=4, batch_size=16)
    upd = local_train(params, dataset, spec, cfg, round_idx=0, seed=1)
    unknown_counts = upd.edd[list(spec.unknown)]
    assert unknown_counts.sum() > 0
    # distinct samples only: cannot exceed the trainable pool
    assert unknown_counts.sum() <= len(dataset)
    for c in spec.identified:
        labeled = sum(1 for values, known_mask
                      in zip(dataset.values, dataset.known)
                      if known_mask.any() and np.argmax(values) == c)
        assert upd.edd[c] == labeled


def test_supervised_branch_ignores_unlabeled_samples():
    fed = small_federation()
    spec, dataset = fed.specs[0], fed.clients[0]
    params = nn.init_params([4, 6], 3, seed=0)
    poked = replace(dataset, x=np.where(dataset.known.any(axis=1)[:, None],
                                        dataset.x, dataset.x + 1e6))
    cfg = fast_cfg()
    a = local_train(params, dataset, spec, cfg, round_idx=0, seed=2,
                    use_pseudo=False)
    b = local_train(params, poked, spec, cfg, round_idx=0, seed=2,
                    use_pseudo=False)
    assert np.array_equal(a.params.proxies, b.params.proxies)
    assert a.stats["kept_pseudo"] == 0


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("mode", ["fedlsm", "fedavg_masked", "fedavg_full"])
def test_local_train_leaves_its_inputs_untouched(task, mode):
    # A round trains in buffers it owns: the global model and the client's
    # arrays keep their bytes, and the update shares no memory with them.
    fed, params = equivalence_setup(task, 1)
    data = fed.clients[0]
    if mode == "fedavg_full":
        data = unmask_labels(data.x, fed.truth[0])
    before = [a.tobytes() for a in (params.flat, data.x, data.values,
                                    data.known)]
    upd = local_train(params, data, fed.specs[0], fast_cfg(tau=0.6,
                                                           tau_l=0.4),
                      round_idx=0, seed=1, use_pseudo=mode == "fedlsm")
    after = [a.tobytes() for a in (params.flat, data.x, data.values,
                                   data.known)]
    assert after == before
    assert not np.shares_memory(upd.params.flat, params.flat)
    assert upd.params.flat.tobytes() != params.flat.tobytes()


def test_local_train_rejects_empty_dataset():
    params = nn.init_params([4, 6], 3, seed=0)
    spec = ClientSpec(client_id=0, identified=(0,), unknown=(1, 2),
                      task="single")
    with pytest.raises(ConfigError, match="empty"):
        local_train(params, ClientData(x=np.zeros((0, 4)),
                                       values=np.zeros((0, 3)),
                                       known=np.zeros((0, 3), dtype=bool)),
                    spec, fast_cfg(), round_idx=0, seed=0)


def test_client_config_validation():
    with pytest.raises(ConfigError, match="tau_l"):
        ClientConfig(tau=0.5, tau_l=0.6).validate()
    with pytest.raises(ConfigError, match="tau_n"):
        ClientConfig(tau_n=0.9, tau_p=0.8).validate()
    with pytest.raises(ConfigError, match="ude_batch_size"):
        ClientConfig(ude_batch_size=128, batch_size=64).validate()
    with pytest.raises(ConfigError, match="frac"):
        ClientConfig(frac_l=0.8, frac_h=0.3).validate()


@pytest.mark.parametrize("field,value", [("mixup_alpha", 0.0),
                                         ("mixup_alpha", -0.2),
                                         ("ude_batch_size", -1),
                                         ("lr_decay", -0.5),
                                         ("tau_l", 0.0),
                                         ("tau_l", -1.0),
                                         ("batch_size", 0),
                                         ("local_iters", -1)])
def test_client_config_rejects_bad_mixup_and_schedule(field, value):
    with pytest.raises(ConfigError, match=f"^client: .*{field}"):
        ClientConfig(**{field: value}).validate()


@pytest.mark.parametrize("field,value,message", [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("local_iters", -1, "local_iters must be >= 0")])
def test_client_config_names_the_bad_size_alone(field, value, message):
    # Checked before ude_batch_size <= batch_size, whose message also
    # contains "batch_size".
    with pytest.raises(ConfigError, match=f"^client: {message}$"):
        ClientConfig(**{field: value}).validate()


@pytest.mark.parametrize("field,value", [
    *((f, v) for f in ("lr", "lr_decay", "ude_weight", "mixup_alpha")
      for v in (math.nan, math.inf)),
    ("frac_l", math.nan), ("frac_h", math.nan)])
def test_client_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ConfigError, match=f"^client: .*{field}"):
        ClientConfig(**{field: value}).validate()


def test_compute_class_weights_multi():
    m = 3
    spec = ClientSpec(client_id=0, identified=(0, 1), unknown=(2,),
                      task="multi")
    # class 0: 1 pos / 3 neg -> 3.0; class 1: 3 pos / 1 neg -> clip at 1.0
    samples = []
    for vals in ([1, 1, 0], [0, 1, 0], [0, 1, 0], [0, 0, 0]):
        values = np.array(vals, dtype=np.float64)
        samples.append((np.zeros(2), (np.where([1, 1, 0], values, 0.0),
                                      np.array([True, True, False]))))
    w = compute_class_weights(*client_arrays(samples)[1:], spec.identified)
    assert w[0] == pytest.approx(3.0)
    assert w[1] == pytest.approx(1.0)
    assert w[2] == 1.0


# ------------------------------------------- per-row reference equivalence
#
# The reference functions below are the per-sample loops the array code
# replaced.  The array code must reproduce them bit for bit and draw the
# same random numbers in the same order.

def reference_loss_identified_single(logits, labels):
    labeled = np.array([known.any() for _, known in labels])
    count = int(labeled.sum())
    if count == 0:
        return 0.0, np.zeros_like(logits)
    log_p = nn.log_softmax(logits)
    probs = np.exp(log_p)
    dlogits = np.zeros_like(logits)
    loss = 0.0
    for i in np.flatnonzero(labeled):
        y = int(np.argmax(labels[i][0]))
        loss -= log_p[i, y]
        dlogits[i] = probs[i]
        dlogits[i, y] -= 1.0
    return float(loss / count), dlogits / count


def reference_loss_unknown_single(logits, decisions):
    kept_idx = np.flatnonzero(decisions.kept)
    denom = len(kept_idx)
    if denom == 0:
        return 0.0, np.zeros_like(logits)
    log_p = nn.log_softmax(logits)
    probs = np.exp(log_p)
    dlogits = np.zeros_like(logits)
    loss = 0.0
    for i in kept_idx:
        y = int(decisions.klass[i])
        loss -= log_p[i, y]
        dlogits[i] = probs[i]
        dlogits[i, y] -= 1.0
    return float(loss / denom), dlogits / denom


def reference_member_labels(dataset, indices, teacher, spec, cfg, rng):
    xs = np.stack([dataset[i][0] for i in indices])
    x_weak = xs + cfg.augment.sigma_weak * rng.standard_normal(xs.shape)
    m = teacher.num_classes
    labels = np.zeros((len(indices), m))
    if spec.task == "single":
        probs = nn.softmax(nn.forward(teacher, x_weak).logits)
        usable = np.zeros(len(indices), dtype=bool)
        for j, i in enumerate(indices):
            values, known_mask = dataset[i][1]
            if known_mask.any():
                labels[j] = values
                usable[j] = True
            elif probs[j].max() >= cfg.tau_l \
                    and int(probs[j].argmax()) in spec.unknown:
                labels[j, int(probs[j].argmax())] = 1.0
                usable[j] = True
        return labels, np.repeat(usable[:, None], m, axis=1)
    probs = nn.sigmoid(nn.forward(teacher, x_weak).logits)
    valid = np.zeros((len(indices), m), dtype=bool)
    for j, i in enumerate(indices):
        values, known_mask = dataset[i][1]
        labels[j] = np.where(known_mask, values, 0.0)
        valid[j] = known_mask.copy()
        for c in spec.unknown:
            if probs[j, c] >= cfg.tau_lp:
                labels[j, c] = 1.0
                valid[j, c] = True
            elif probs[j, c] <= cfg.tau_ln:
                valid[j, c] = True
    return labels, valid


def reference_ude_batch(dataset, part, teacher, spec, cfg, rng):
    m = teacher.num_classes
    empty = (np.zeros((0, dataset[0][0].shape[0])), np.zeros((0, m)),
             np.zeros((0, m), dtype=bool))
    if len(part.high) == 0 or len(part.low) == 0 or cfg.ude_batch_size == 0:
        return empty
    # one pass over n candidate pairs; oversample 4x unless some class is
    # known on every row, which makes every pair usable
    always_known = any(all(known[c] for _, (_, known) in dataset)
                       for c in range(m))
    n = cfg.ude_batch_size * (1 if always_known else 4)
    low_idx = rng.choice(part.low, size=n, replace=True)
    high_idx = rng.choice(part.high, size=n, replace=True)
    y_low, ok_low = reference_member_labels(dataset, low_idx, teacher,
                                            spec, cfg, rng)
    y_high, ok_high = reference_member_labels(dataset, high_idx, teacher,
                                              spec, cfg, rng)
    lams = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=n)
    xs_mix, ys_mix, valids = [], [], []
    for j in range(n):
        if len(xs_mix) == cfg.ude_batch_size:
            break
        pair_valid = ok_low[j] & ok_high[j]
        if not pair_valid.any():
            continue
        lam = float(lams[j])
        xs_mix.append(lam * dataset[low_idx[j]][0]
                      + (1.0 - lam) * dataset[high_idx[j]][0])
        ys_mix.append(lam * y_low[j] + (1.0 - lam) * y_high[j])
        valids.append(pair_valid)
    if not xs_mix:
        return empty
    return np.stack(xs_mix), np.stack(ys_mix), np.stack(valids)


def random_single_labels(rng, n, m):
    labels = []
    for _ in range(n):
        if rng.random() < 0.5:
            labels.append(unit_label(m, int(rng.integers(m))))
        else:
            labels.append(unlabeled(m))
    return labels


@pytest.mark.parametrize("seed", range(5))
def test_single_label_losses_match_per_row_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    n, m = 64, 7
    logits = rng.normal(size=(n, m)) * 4
    labels = random_single_labels(rng, n, m)
    got = loss_identified(logits, *stacked(labels), "single")
    want = reference_loss_identified_single(logits, labels)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()

    dec = PseudoLabelDecision(kept=rng.random(n) < 0.4,
                              klass=rng.integers(m, size=n))
    got = loss_unknown(logits, pseudo_hits(dec.kept, dec.klass, m), "single")
    want = reference_loss_unknown_single(logits, dec)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


def _reference_logs(logits):
    return (nn.sigmoid(logits), -np.logaddexp(0.0, -logits),
            -np.logaddexp(0.0, logits))


def reference_loss_identified_multi(logits, values, known, class_weights):
    mask = known.astype(np.float64)
    count = mask.sum()
    if count == 0:
        return 0.0, np.zeros_like(logits)
    w = np.ones(logits.shape[1]) if class_weights is None else class_weights
    sig, log_sig, log_one_minus = _reference_logs(logits)
    per_entry = -(w * values * log_sig + (1.0 - values) * log_one_minus)
    loss = float((mask * per_entry).sum() / count)
    dlogits = mask * (-w * values * (1.0 - sig) + (1.0 - values) * sig) / count
    return loss, dlogits


def reference_loss_unknown_multi(logits, state):
    n = logits.shape[0]
    pos = (state == 1).astype(np.float64)
    neg = (state == -1).astype(np.float64)
    if pos.sum() + neg.sum() == 0:
        return 0.0, np.zeros_like(logits)
    sig, log_sig, log_one_minus = _reference_logs(logits)
    loss = float(-(pos * log_sig + neg * log_one_minus).sum() / n)
    return loss, (pos * (sig - 1.0) + neg * sig) / n


def reference_loss_ude_multi(logits, targets, valid):
    valid = valid.astype(np.float64)
    count = valid.sum()
    if count == 0:
        return 0.0, np.zeros_like(logits)
    sig, log_sig, log_one_minus = _reference_logs(logits)
    per_entry = -(targets * log_sig + (1.0 - targets) * log_one_minus)
    loss = float((valid * per_entry).sum() / count)
    return loss, valid * (sig - targets) / count


def reference_loss_ude_single(logits, targets):
    """Soft-label cross-entropy with the loss summed one row at a time."""
    n = logits.shape[0]
    log_p = nn.log_softmax(logits)
    loss = 0.0
    for i in range(n):
        loss -= (targets[i] * log_p[i]).sum()
    row_mass = targets.sum(axis=1, keepdims=True)
    return float(loss / n), (np.exp(log_p) * row_mass - targets) / n


def assert_same_bits(got, want):
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_multi_label_losses_match_reference_formulas_exactly(seed):
    rng = np.random.default_rng(seed)
    n, m = 64, 7
    logits = rng.normal(size=(n, m)) * 4
    known = rng.random((n, m)) < 0.6
    values = np.where(known, rng.random((n, m)) < 0.3, 0.0)
    weights = 1.0 + 4.0 * rng.random(m)
    for w in (None, weights):
        assert_same_bits(
            loss_identified(logits, values, known, "multi", w),
            reference_loss_identified_multi(logits, values, known, w))

    state = rng.integers(-1, 2, size=(n, m)) * (rng.random((n, m)) < 0.5)
    assert_same_bits(loss_unknown(logits, state == 1, "multi", state == -1),
                     reference_loss_unknown_multi(logits, state))

    targets = rng.random((8, m))
    valid = rng.random((8, m)) < 0.7
    assert_same_bits(loss_ude(logits[:8], targets, "multi", valid),
                     reference_loss_ude_multi(logits[:8], targets, valid))
    assert_same_bits(
        loss_ude(logits[:8], targets, "multi"),
        reference_loss_ude_multi(logits[:8], targets, np.ones((8, m), bool)))


@pytest.mark.parametrize("seed", range(5))
def test_soft_label_loss_matches_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    n, m = 8, 7
    logits = rng.normal(size=(n, m)) * 4
    lam = rng.beta(0.2, 0.2, size=(n, 1))
    targets = lam * rng.dirichlet(np.ones(m), size=n) \
        + (1.0 - lam) * np.eye(m)[rng.integers(m, size=n)]
    got = loss_ude(logits, targets, "single")
    assert_same_bits(got, reference_loss_ude_single(logits, targets))
    # A whole-matrix sum groups the additions differently: a few ulps.
    pairwise = float(-(targets * nn.log_softmax(logits)).sum() / n)
    assert got[0] == pytest.approx(pairwise, rel=n * m * np.finfo(float).eps)


def reference_setup(task, seed):
    rng = np.random.default_rng(seed)
    n, d, m = 40, 4, 5
    teacher = nn.init_params([d, 6], m, seed=seed)
    teacher.proxies[...] *= 6.0  # a mix of confident and unconfident members
    identified = (0, 2)
    spec = ClientSpec(client_id=0, identified=identified, unknown=(1, 3, 4),
                      task=task)
    if task == "single":
        labels = random_single_labels(rng, n, m)
    else:
        # sparse trust masks, so some pairs share no usable class
        labels = []
        for _ in range(n):
            known = rng.random(m) < 0.2
            labels.append((np.where(known, rng.random(m) < 0.4, 0.0),
                           known))
    dataset = [(rng.normal(size=d) * 2, rec) for rec in labels]
    order = rng.permutation(n)
    part = UncertaintyPartition(low=order[:20], mid=order[20:32],
                                high=order[32:], entropy=np.zeros(n))
    cfg = ClientConfig(ude_batch_size=8, tau=0.95, tau_l=0.8,
                       tau_lp=0.9, tau_ln=0.01, mixup_alpha=0.4)
    return dataset, part, teacher, spec, cfg


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("seed", range(4))
def test_ude_batch_matches_per_row_reference_exactly(task, seed):
    dataset, part, teacher, spec, cfg = reference_setup(task, seed)
    rng_a = np.random.default_rng(100 + seed)
    rng_b = np.random.default_rng(100 + seed)
    got = mix_batch(*client_arrays(dataset), part, teacher, spec, cfg, rng_a)
    want = reference_ude_batch(dataset, part, teacher, spec, cfg, rng_b)
    assert got[0].shape[0] > 0
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    # the same number of random draws was consumed
    assert rng_a.random() == rng_b.random()


def test_verdict_tracking_matches_per_row_reference():
    rng = np.random.default_rng(8)
    n, m = 12, 4
    tracked = np.zeros((n, m), dtype=bool)
    reference = {}
    for _ in range(6):
        # drawn with replacement, so samples repeat within a batch
        batch_idx = rng.integers(n, size=20)
        hits = rng.random((20, m)) < 0.15
        _track_verdicts(tracked, batch_idx, hits)
        for j, i in enumerate(batch_idx):
            if hits[j].any():
                reference[int(i)] = hits[j]
    want = np.zeros((n, m), dtype=bool)
    for i, pos in reference.items():
        want[i] = pos
    assert np.array_equal(tracked, want)


@pytest.mark.parametrize("pool_size", [1, 2, 3, 17, 500])
@pytest.mark.parametrize("seed", range(4))
def test_draw_with_replacement_matches_generator_choice(seed, pool_size):
    pool = np.arange(pool_size) * 3 + 5
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    for k in (1, 8, 64):
        got = _draw_with_replacement(pool, k, a)
        want = b.choice(pool, size=k, replace=True)
        assert got.tobytes() == want.tobytes()
        assert a.bit_generator.state == b.bit_generator.state


# ------------------------------------------- fused step vs the parent loop
#
# reference_local_train is the local round as it was before each step's
# passes were fused: separate student passes on the weak, strong and
# MixUp rows, whose three backward() results add_params summed, and a
# second teacher pass inside the MixUp batch (parent_ude_batch, with
# parent_ude_candidates).  All three are kept verbatim.  The fused step
# draws the same random numbers, makes the same verdicts and sums the
# same gradient rows in one matrix product, so parameters and losses may
# differ only by rounding.

def parent_ude_candidates(known: np.ndarray, cfg: ClientConfig) -> int:
    """MixUp candidate pairs per batch: ude_batch_size when some class is
    known on every row (then every pair is usable), else
    UDE_CANDIDATES_PER_PAIR times as many."""
    per_pair = 1 if known.all(axis=0).any() else UDE_CANDIDATES_PER_PAIR
    return per_pair * cfg.ude_batch_size


def parent_ude_batch(x: np.ndarray, values: np.ndarray, known: np.ndarray,
                     part: UncertaintyPartition, teacher: nn.ModelParams,
                     spec: ClientSpec, cfg: ClientConfig,
                     rng: np.random.Generator, candidates: int | None = None):
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
    n = parent_ude_candidates(known, cfg) if candidates is None \
        else candidates
    hi, lo = (cfg.tau_l, None) if spec.task == "single" \
        else (cfg.tau_lp, cfg.tau_ln)
    low_idx = _draw_with_replacement(part.low, n, rng)
    high_idx = _draw_with_replacement(part.high, n, rng)
    members = np.concatenate([low_idx, high_idx])
    # One draw of 2n weak views is the same stream as a draw for the low
    # members followed by one for the high members.
    logits = nn.forward(teacher, augment_weak_batch(
        x[members], rng, cfg.augment)).logits
    pos, neg = parent_masks(parent_decide(logits, spec.unknown, spec.task,
                                          hi, lo), known[members])
    y = np.where(pos, 1.0, values[members])
    ok = known[members] | pos | neg
    lams = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=n)
    pair_ok = ok[:n] & ok[n:]
    keep = np.flatnonzero(pair_ok.any(axis=1))[:cfg.ude_batch_size]
    lam = lams[keep, None]
    x_mix = lam * x[low_idx[keep]] + (1.0 - lam) * x[high_idx[keep]]
    y_mix = lam * y[keep] + (1.0 - lam) * y[n + keep]
    return x_mix, y_mix, pair_ok[keep]


def reference_local_train(global_params: nn.ModelParams, data: ClientData,
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
        candidates = parent_ude_candidates(known, cfg)
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
            hits, negative = parent_masks(dec, known[batch_idx])

            cache_s = nn.forward(student, x_strong)
            l_u, dl_s = loss_unknown(cache_s.logits, hits, spec.task, negative)
            grads = nn.add_params(grads, nn.backward(student, cache_s, dl_s))

            if cfg.ude_weight > 0:
                x_mix, y_mix, valid = parent_ude_batch(x, values, known,
                                                       part, teacher, spec,
                                                       cfg, rng, candidates)
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


def equivalence_setup(task, seed):
    fed = gen_federation(FederationConfig(
        n_clients=2, n_classes=5, classes_per_client=3, feature_dim=6,
        samples_per_client=60, n_val=10, n_test=40, task=task, seed=seed))
    params = nn.init_params([6, 8], 5, seed=seed)
    params.proxies[...] *= 4.0  # a teacher confident on some rows
    return fed, params


def check_fused_step(monkeypatch, task, seed, ude_weight, batch_size, fracs):
    """local_train against reference_local_train on both clients of
    equivalence_setup, with (frac_l, frac_h) = fracs."""
    fed, params = equivalence_setup(task, seed)
    cfg = ClientConfig(tau=0.6, tau_l=0.4, tau_p=0.8, tau_n=0.05,
                       tau_lp=0.6, tau_ln=0.1, ude_weight=ude_weight,
                       local_iters=6, batch_size=batch_size,
                       ude_batch_size=4, lr=3e-3, frac_l=fracs[0],
                       frac_h=fracs[1])
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: made.append(default_rng(*a)) or made[-1])
    kept = 0
    for spec, data in zip(fed.specs, fed.clients):
        want = reference_local_train(params, data, spec, cfg, round_idx=1,
                                     seed=seed)
        got = local_train(params, data, spec, cfg, round_idx=1, seed=seed)
        assert len(made) == 2
        assert made[0].bit_generator.state == made[1].bit_generator.state
        made.clear()
        assert got.stats["kept_pseudo"] == want.stats["kept_pseudo"]
        kept += got.stats["kept_pseudo"]
        assert got.edd.tobytes() == want.edd.tobytes()
        assert np.abs(got.params.flat - want.params.flat).max() <= 1e-12
        for key in ("loss_identified", "loss_unknown", "loss_ude"):
            assert got.stats[key] == pytest.approx(want.stats[key], rel=1e-12,
                                                   abs=0.0)
        assert (want.stats["loss_ude"] > 0) == (ude_weight > 0
                                                and min(fracs) > 0)
    assert kept > 0  # the pseudo-label loss took part


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ude_weight", [0.1, 0.0])
@pytest.mark.parametrize("batch_size", [16, 64])  # 64 > the 54-row pool
def test_fused_step_matches_parent_loop(monkeypatch, task, seed, ude_weight,
                                        batch_size):
    check_fused_step(monkeypatch, task, seed, ude_weight, batch_size,
                     (0.5, 0.1))


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ude_weight", [0.1, 0.0])
@pytest.mark.parametrize("batch_size", [16, 64])  # 64 > 54 or 60 rows
# (frac_l, frac_h): an empty confident or uncertain split draws no pairs
@pytest.mark.parametrize("fracs", [(0.5, 0.0), (0.0, 0.1)])
def test_fused_step_matches_parent_loop_on_an_empty_split(
        monkeypatch, task, seed, ude_weight, batch_size, fracs):
    check_fused_step(monkeypatch, task, seed, ude_weight, batch_size, fracs)


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("batch_size", [16, 64])  # 64 > every labeled pool
@pytest.mark.parametrize("unmask", [False, True])
def test_fedavg_step_matches_parent_loop(monkeypatch, task, seed, batch_size,
                                         unmask):
    fed, params = equivalence_setup(task, seed)
    cfg = ClientConfig(local_iters=6, batch_size=batch_size, lr=3e-3)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: made.append(default_rng(*a)) or made[-1])
    for k, (spec, data) in enumerate(zip(fed.specs, fed.clients)):
        if unmask:
            data = unmask_labels(data.x, fed.truth[k])
        want = reference_local_train(params, data, spec, cfg, round_idx=1,
                                     seed=seed, use_pseudo=False)
        got = local_train(params, data, spec, cfg, round_idx=1, seed=seed,
                          use_pseudo=False)
        assert len(made) == 2
        assert made[0].bit_generator.state == made[1].bit_generator.state
        made.clear()
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert got.edd.tobytes() == want.edd.tobytes()
        assert got.stats == want.stats
        assert got.stats["loss_identified"] > 0.0


@pytest.mark.parametrize("task", ["single", "multi"])
@pytest.mark.parametrize("ude_weight", [0.1, 0.0])
def test_local_train_makes_one_teacher_and_one_student_pass_per_step(
        monkeypatch, task, ude_weight):
    fed, params = equivalence_setup(task, 0)
    cfg = ClientConfig(tau=0.6, tau_l=0.4, ude_weight=ude_weight,
                       local_iters=5, batch_size=16, ude_batch_size=4)
    counts = Counter()
    for name in ("forward", "backward", "add_params"):
        fn = getattr(nn, name)
        monkeypatch.setattr(nn, name, lambda *a, _fn=fn, _name=name, **kw:
                            counts.update([_name]) or _fn(*a, **kw))
    inside_ude = []
    ude = client.ude_batch

    def counted_ude(*args, **kwargs):
        before = counts["forward"]
        out = ude(*args, **kwargs)
        inside_ude.append(counts["forward"] - before)
        return out

    monkeypatch.setattr(client, "ude_batch", counted_ude)
    local_train(params, fed.clients[0], fed.specs[0], cfg, round_idx=0,
                seed=0)
    steps = cfg.local_iters
    # one partition pass, then a teacher and a student pass per step; the
    # MixUp batch is built every step, empty when ude_weight is 0
    assert counts == {"forward": 1 + 2 * steps, "backward": steps}
    assert inside_ude == [0] * steps


def parent_masked_bce(logits: np.ndarray, targets: np.ndarray,
                      mask: np.ndarray, denom: int,
                      pos_weight: np.ndarray | None = None):
    """_masked_bce with two softplus terms per entry, verbatim."""
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


EDGE_LOGITS = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
               800.0, -800.0]


def assert_hard_bce_bits(logits, one, known, negative, weights):
    """loss_identified and loss_unknown (multi) against the two-softplus
    formula, bit for bit, with and without per-class weights."""
    values = np.where(known, one, 0.0)
    for w in (None, weights):
        got = loss_identified(logits, values, known, "multi", w)
        want = parent_masked_bce(logits, values, known,
                                 np.count_nonzero(known), w)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    hits = one & ~negative
    got = loss_unknown(logits, hits, "multi", negative)
    want = parent_masked_bce(logits, hits, hits | negative, len(logits))
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_hard_label_bce_matches_two_softplus_formula_at_edge_logits():
    logits = np.array([EDGE_LOGITS, EDGE_LOGITS])
    one = np.array([[True] * 10, [False] * 10])
    known = np.ones_like(one)
    negative = ~one
    weights = np.linspace(1.0, 40.0, 10)
    assert_hard_bce_bits(logits, one, known, negative, weights)
    assert_hard_bce_bits(logits, one, known, np.zeros_like(one), weights)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hard_label_bce_matches_two_softplus_formula_bits(data):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))

    def matrix(elements):
        return np.array(data.draw(st.lists(
            elements, min_size=n * m, max_size=n * m))).reshape(n, m)

    logits = matrix(st.one_of(st.sampled_from(EDGE_LOGITS),
                              st.floats(-900.0, 900.0))).astype(np.float64)
    one, known, negative = (matrix(st.booleans()) for _ in range(3))
    weights = np.array(data.draw(st.lists(st.floats(1.0, 100.0),
                                          min_size=m, max_size=m)))
    assert_hard_bce_bits(logits, one, known, negative & ~one, weights)
