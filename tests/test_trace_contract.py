"""The benchmark's traced run, at a tiny size: every traced layer function
must still exist, be reached, and be called as often as the workload's
configuration implies.  A renamed, bypassed or re-counted function fails
here instead of only in a full `bench/run.py --trace 1` run."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture()
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "ROUNDS", 2)
    monkeypatch.setattr(workloads, "FEDERATION", replace(
        workloads.FEDERATION, n_clients=3, samples_per_client=60, n_val=20,
        n_test=200))
    monkeypatch.setattr(workloads, "CLIENT", replace(
        workloads.CLIENT, local_iters=3, batch_size=16))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_meets_the_call_contract(tiny_workloads, name):
    ops, _, mismatches = run.traced_pass(workloads.WORKLOADS[name], 0,
                                         Tracer())
    assert mismatches == []
    assert [op.problems for op in ops] == [[] for _ in ops]
