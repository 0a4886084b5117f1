"""Arithmetic behind the benchmark's figures: best of repeats, self time,
tail percentile, failure accounting.  Imports NumPy, so load it only after
threads are pinned.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Candidate percentiles for the tail figure.  A fixed ladder keeps the
# reported percentile the same across runs whose sample counts differ a
# little, so two commits are compared at the same percentile.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_rung(n: int) -> float:
    """Highest TAIL_LADDER percentile that leaves at least MIN_BEYOND of n
    distinct samples strictly above it."""
    best = None
    for p in TAIL_LADDER:
        if n - 1 - math.floor((n - 1) * p / 100.0) >= MIN_BEYOND:
            best = p
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} above "
                         f"every percentile in {TAIL_LADDER}")
    return best


def tail_percentile(values):
    """Tail figure of `values` -> (percentile, value, samples above it),
    at the percentile tail_rung(len(values))."""
    xs = sorted(values)
    p = tail_rung(len(xs))
    v = float(np.percentile(xs, p))
    return p, v, len(xs) - bisect_right(xs, v)


def best_of_repeats(repeats) -> list[float]:
    """Element-wise minimum of equally long timing sequences.

    Each sequence times the same deterministic work (one (arm, seed)
    run, round by round), so a slower repeat of an element only measured
    a stretch in which the shared host ran the process slowly.
    """
    lengths = {len(r) for r in repeats}
    if len(lengths) != 1:
        raise ValueError(f"repeats differ in length: {sorted(lengths)}")
    return [min(col) for col in zip(*repeats)]


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans are parallel sequences; parent[i] is the index of span i's
    parent or -1.  Children may overlap each other or stick out of their
    parent: covered time is the union of the child intervals clipped to
    the parent's interval.  Grandchildren count only against their own
    parent.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_s = run_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_e is not None and s <= run_e:
                run_e = max(run_e, e)
                continue
            if run_e is not None:
                covered += run_e - run_s
            run_s, run_e = s, e
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


@dataclass
class OpTally:
    """Operations attempted and failed; failed_share is their ratio."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def failed_share(self) -> float:
        if self.attempted == 0:
            raise ValueError("failed_share has no base: no operation attempted")
        return self.failed / self.attempted
