"""The benchmark's own arithmetic and bookkeeping."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from arith import (OpTally, best_of_repeats, self_times, tail_percentile,
                   tail_rung)
from fedlsm import client, nn
from fedlsm.client import PseudoLabelDecision
from tracing import Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] sticks out
    # of the parent; the grandchild [1, 2] counts only against span 1.
    start = [0.0, 1.0, 3.0, 8.0, 1.0]
    end = [10.0, 4.0, 6.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_of_nested_and_disjoint_children():
    start = [0.0, 1.0, 5.0, 5.0]
    end = [10.0, 2.0, 7.0, 7.0]  # two identical children cover 2 s, not 4
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([7.0, 1.0, 2.0, 2.0])


@pytest.mark.parametrize("n, want", [(21, 50.0), (100, 90.0), (181, 90.0),
                                     (182, 95.0), (1000, 99.0),
                                     (20000, 99.9)])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, want):
    values = list(range(1, n + 1))
    p, value, beyond = tail_percentile(values)
    assert p == want
    assert value == pytest.approx(np.percentile(values, p))
    assert beyond == sum(v > value for v in values) >= 10
    higher = [q for q in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9) if q > p]
    for q in higher:  # the next rung up would leave fewer than ten beyond
        v = np.percentile(values, q)
        assert sum(x > v for x in values) < 10


def test_tail_rung_needs_ten_beyond_the_lowest_rung():
    assert tail_rung(20) == 50.0
    with pytest.raises(ValueError):
        tail_rung(19)


def test_tail_counts_ties_as_not_beyond():
    values = [1.0] * 50 + [2.0] * 9
    assert tail_percentile(values) == (75.0, 1.0, 9)


def test_best_of_repeats_takes_each_element_from_its_fastest_repeat():
    assert best_of_repeats([[0.3, 0.1, 0.2], [0.1, 0.4, 0.2]]) == \
        [0.1, 0.1, 0.2]
    with pytest.raises(ValueError):
        best_of_repeats([[0.1, 0.2], [0.1]])


def test_failed_share_accounting():
    tally = OpTally()
    with pytest.raises(ValueError):
        tally.failed_share
    for ok in (True, False, True, True):
        tally.record(ok)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_share == 0.25


PLAN = [("fedlsm", 0), ("fedlsm", 1)]


def _op(seed, auc=0.9, problems=(), wall_s=1.0, round_s=None):
    ok = not problems
    if round_s is None:
        round_s = [0.1] * workloads.ROUNDS if ok else []
    return workloads.OpResult(
        "fedlsm", seed, wall_s=wall_s, round_s=round_s,
        final_auc=auc if ok else None, problems=list(problems))


def test_summary_of_only_failed_operations_still_reports():
    ops = [_op(s, problems=["raised: boom"]) for _, s in PLAN]
    metrics, notes, tally, problems = run.summarise(ops, PLAN, [0.4, 0.5])
    assert (tally.attempted, tally.failed, tally.failed_share) == (2, 2, 1.0)
    assert metrics["client_steps_per_s"] == 0
    assert math.isnan(metrics["round_s_p50"])
    assert math.isnan(metrics["round_s_tail"])
    assert math.isnan(metrics["final_macro_auc"])
    assert any(p.startswith("no final AUC") for p in problems)
    assert any(p.startswith("determinism") for p in problems)


def test_summary_needs_a_repeat_that_matches_bit_for_bit():
    once = [_op(s) for _, s in PLAN]
    _, _, tally, problems = run.summarise(once, PLAN, [0.4])
    assert tally.failed == 0
    assert problems == ["determinism: no (arm, seed) repeat to compare"]

    _, notes, _, problems = run.summarise(once + [_op(0)], PLAN, [0.4])
    assert problems == []
    assert "1 repeats compared" in notes["final_macro_auc"]

    drift = _op(0, auc=math.nextafter(0.9, 1.0))
    _, _, _, problems = run.summarise(once + [drift], PLAN, [0.4])
    assert len(problems) == 1 and "differs from first run" in problems[0]


def test_summary_times_each_round_and_run_by_its_fastest_repeat():
    n = workloads.ROUNDS
    slow_start = [0.3] * (n // 2) + [0.1] * (n - n // 2)
    slow_end = [0.1] * (n // 2) + [0.3] * (n - n // 2)
    ops = [_op(0, wall_s=2.0, round_s=slow_start), _op(1),
           _op(0, wall_s=3.0, round_s=slow_end),
           _op(1, problems=["round 3: non-finite metric"], wall_s=0.5)]
    metrics, notes, tally, problems = run.summarise(ops, PLAN, [0.4])
    assert tally.failed == 1 and problems == []
    assert metrics["round_s_p50"] == metrics["round_s_tail"] == 0.1
    # the failed run's short wall time does not count
    assert metrics["client_steps_per_s"] == pytest.approx(
        2 * workloads.STEPS_PER_OP / (2.0 + 1.0))
    assert "best of at least 1 repeats" in notes["round_s_p50"]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_tracer_follows_by_name_bindings_and_restores_them():
    original = nn.forward
    params = nn.init_params([4, 3], 3, seed=0)
    tracer = Tracer()
    targets = [("fedlsm.client", "pseudo_single", "client.pseudo", None),
               ("fedlsm.nn", "forward", "nn.forward",
                workloads._forward_hook)]
    with tracer.installed(targets):
        import fedlsm

        assert fedlsm.forward is nn.forward is not original
        client.pseudo_single(params, np.zeros((5, 4)), (1, 2), 0.5)
    assert nn.forward is original and fedlsm.forward is original
    summary = tracer.summary()
    assert summary["client.pseudo"]["calls"] == 1
    assert summary["client.pseudo"]["children"]["nn.forward"] == 1
    assert tracer.counts["nn.forward.rows"] == 5
    assert list(tracer.parent) == [-1, 0]


def test_tracer_rejects_a_missing_layer_function():
    with pytest.raises(AttributeError):
        with Tracer().installed([("fedlsm.nn", "no_such", "nn.x", None)]):
            pass


def test_pseudo_checks_flag_identified_classes():
    single = PseudoLabelDecision(kept=np.array([True, True, False]),
                                 klass=np.array([2, 0, 0]))
    assert workloads._check_single(single, {1, 2}) == (3, 2, 1)
    state = np.array([[1, 0, -1], [0, 0, 1]], dtype=np.int8)
    multi = PseudoLabelDecision(state=state)
    # unknown = {1, 2}: column 0 is identified, so its +1 is a violation
    assert workloads._check_multi(multi, {1, 2}) == (4, 2, 1)


def _implied_calls(wl):
    lsm = "fedlsm" in wl.modes
    n = len(wl.modes)
    client_rounds = workloads.FEDERATION.n_clients * workloads.ROUNDS
    steps = client_rounds * n * workloads.CLIENT.local_iters
    lsm_steps = steps if lsm else 0
    calls = {
        "data.gen_federation": 1, "client.local_train": client_rounds * n,
        "nn.adam_step": steps, "client.loss_identified": steps,
        "nn.ema_update": lsm_steps, "client.pseudo": lsm_steps,
        "client.loss_unknown": lsm_steps, "client.ude_batch": lsm_steps,
        "uncertainty.partition": client_rounds if lsm else 0,
        "uncertainty.score_dataset": client_rounds if lsm else 0,
        "client.loss_ude": lsm_steps,
        "server.aggregate": workloads.ROUNDS * n,
        "server.evaluate": workloads.ROUNDS * n,
        "metrics.macro_metrics": workloads.ROUNDS * n,
        "nn.forward": steps, "nn.backward": steps, "data.augment": steps,
    }
    per_round = {(op, r): workloads.FEDERATION.n_clients
                 for op in range(n) for r in range(workloads.ROUNDS)}
    return calls, per_round


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_call_self_check_accepts_implied_counts(name):
    wl = workloads.WORKLOADS[name]
    calls, per_round = _implied_calls(wl)
    assert workloads.check_calls(wl, calls, per_round) == []


@pytest.mark.parametrize("layer", ["nn.adam_step", "client.local_train",
                                   "nn.forward", "server.evaluate"])
def test_call_self_check_flags_a_layer_that_reads_zero(layer):
    wl = workloads.WORKLOADS["single_fedlsm"]
    calls, per_round = _implied_calls(wl)
    calls[layer] = 0
    bad = workloads.check_calls(wl, calls, per_round)
    assert any(b.startswith(layer) for b in bad)


def test_call_self_check_flags_protocol_work_in_a_baseline():
    wl = workloads.WORKLOADS["fedavg_baselines"]
    calls, per_round = _implied_calls(wl)
    calls["client.pseudo"] = 1
    del per_round[(0, 3)]
    bad = workloads.check_calls(wl, calls, per_round)
    assert any(b.startswith("client.pseudo") for b in bad)
    assert any("(op, round) groups" in b for b in bad)


def test_layer_metrics_cover_the_catalogue_and_read_zero_when_bypassed():
    got = run.layer_metrics({}, Counter())
    assert set(got) | {"trace.overhead_s", "failed_share"} == \
        {name for name, _ in run.PER_LAYER}
    assert all(v == 0 for v in got.values())
