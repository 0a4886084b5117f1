"""Summary arithmetic of tools/bench_pairs.py."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "client_steps_per_s", "better": "higher",
               "bound": 0.22},
              {"name": "round_s_p50", "better": "lower", "bound": 0.22}]


def test_quartiles_interpolate_between_order_statistics():
    q = bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q["median"], q["q1"], q["q3"]) == (2.5, 1.75, 3.25)
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0,
                                            "q3": 7.0, "n": 1}


def test_compare_counts_wins_and_ties_in_the_metric_direction():
    pairs = [(10.0, 12.0), (10.0, 10.0), (11.0, 9.0), (9.0, 15.0)]
    up = bench_pairs.compare(pairs, higher_better=True, bound=0.2)
    assert (up["change_better"], up["ties"]) == (2, 1)
    down = bench_pairs.compare(pairs, higher_better=False, bound=0.2)
    assert (down["change_better"], down["ties"]) == (1, 1)
    assert up["parent"]["median"] == 10.0
    assert up["change"]["median"] == 11.0
    assert up["median_ratio"] == pytest.approx(1.1)
    assert up["parent_iqr"] == pytest.approx(10.25 - 9.75)
    assert math.isnan(
        bench_pairs.compare([(0.0, 1.0)], True, 0.2)["median_ratio"])


@pytest.mark.parametrize("higher_better", [True, False])
def test_compare_states_the_claim_and_bound_verdicts(higher_better):
    # Parent values 9, 10, 10, 11: median 10, IQR 0.5.  The change's
    # median moves by `shift` in the better direction.
    sign = 1.0 if higher_better else -1.0

    def verdicts(shift, bound=0.2):
        pairs = [(p, p + sign * shift) for p in (9.0, 10.0, 10.0, 11.0)]
        s = bench_pairs.compare(pairs, higher_better, bound)
        assert s["parent_iqr"] == 0.5
        return s["gap_over_iqr"], s["beyond_bound"]

    assert verdicts(0.6) == (True, False)
    assert verdicts(0.5) == (False, False)  # a gap must exceed the IQR
    assert verdicts(0.0) == (False, False)
    assert verdicts(-2.0) == (False, False)  # exactly the 20% bound
    assert verdicts(-2.5) == (False, True)
    assert verdicts(-0.6, bound=0.05) == (False, True)
    assert verdicts(-0.4, bound=0.05) == (False, False)


def run(wl, seed, side, steps, p50, trace=0, rc=0):
    metrics = {"client_steps_per_s": {"value": steps},
               "round_s_p50": {"value": p50},
               "final_macro_auc": {"value": 0.9}}
    return {"workload": wl, "seed": seed, "trace": trace, "side": side,
            "returncode": rc, "result": {"correct": rc == 0,
                                         "metrics": metrics}}


def test_summarise_pairs_by_seed_and_drops_incomplete_pairs():
    runs = [run("w", 0, "parent", 100.0, 0.2), run("w", 0, "change", 150.0, 0.1),
            run("w", 1, "change", 140.0, 0.1), run("w", 1, "parent", 90.0, 0.3),
            run("w", 2, "parent", 95.0, 0.2),  # its change run never finished
            run("w", 3, "parent", 80.0, 0.2),
            run("w", 3, "change", 1.0, 9.0, rc=1),  # failed: not a pair
            run("w", bench_pairs.HELD_OUT_SEED, "parent", 1.0, 1.0),
            run("w", bench_pairs.HELD_OUT_SEED, "change", 2.0, 1.0),
            run("w", 0, "parent", 5.0, 5.0, trace=1)]
    s = bench_pairs.summarise(runs, ["w"], END_TO_END)["w"]
    assert s["pairs"] == 3
    steps = s["client_steps_per_s"]
    assert steps["parent"]["n"] == 2 and steps["change"]["n"] == 2
    assert steps["parent"]["median"] == 95.0
    assert steps["change"]["median"] == 145.0
    assert steps["change_better"] == 2
    assert s["round_s_p50"]["change_better"] == 2
    assert steps["gap_over_iqr"] and not steps["beyond_bound"]
    held = bench_pairs.held_out(runs, ["w"])
    assert held == {"w": {"parent": 0.9, "change": 0.9}}


def test_plan_alternates_the_first_side_per_workload():
    steps = bench_pairs.plan(["a", "b"])
    firsts = [(wl, seed, first) for wl, seed, trace, first in steps
              if trace == 0 and seed != bench_pairs.HELD_OUT_SEED]
    alternating = ["parent", "change"] * (bench_pairs.PAIRS // 2)
    assert bench_pairs.PAIRS >= 10
    assert [f for wl, _, f in firsts if wl == "a"] == alternating
    assert [f for wl, _, f in firsts if wl == "b"] == alternating
    assert [(wl, trace) for wl, seed, trace, _ in steps[-4:]] == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1)]
