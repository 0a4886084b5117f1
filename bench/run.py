"""fedlsm benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload single_fedlsm --seed 0 --seconds 36 --trace 0

Run from the repository root.  With --trace 0 the run measures the
end-to-end metrics with nothing wrapped; with --trace 1 it wraps the
layer functions and reports per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  README.md beside
this file gives the workloads' reasons and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import boot

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# Passes every untraced run makes.  The shared host slows whole stretches
# of rounds, so each round is timed as the best of its repeats, and three
# repeats leave few rounds that were slowed in all of them.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"), ("client_steps_per_s", "steps/s"),
    ("round_s_p50", "s"), ("round_s_tail", "s"), ("peak_rss_mb", "MiB"),
    ("final_macro_auc", "1"),
]

PER_LAYER = [
    ("client.ude_batch.calls", "count"), ("client.ude_batch.self_s", "s"),
    ("client.ude_batch.pair_yield", "1"),
    ("client.ude_batch.teacher_passes", "count"),
    ("uncertainty.partition.calls", "count"),
    ("uncertainty.partition.self_s", "s"),
    ("uncertainty.score_dataset.self_s", "s"),
    ("uncertainty.score_dataset.rows_per_s", "rows/s"),
    ("client.loss_identified.self_s", "s"),
    ("client.loss_unknown.self_s", "s"), ("client.loss_ude.self_s", "s"),
    ("client.pseudo.calls", "count"), ("client.pseudo.self_s", "s"),
    ("client.pseudo.keep_ratio", "1"),
    ("client.local_train.calls", "count"), ("client.local_train.self_s", "s"),
    ("client.local_train.p50_s", "s"),
    ("nn.forward.calls", "count"), ("nn.forward.self_s", "s"),
    ("nn.forward.rows_per_call", "rows"),
    ("nn.backward.calls", "count"), ("nn.backward.self_s", "s"),
    ("nn.add_params.calls", "count"),
    ("nn.adam_step.self_s", "s"), ("nn.ema_update.self_s", "s"),
    ("data.augment.calls", "count"), ("data.augment.self_s", "s"),
    ("data.gen_federation.s", "s"),
    ("server.aggregate.self_s", "s"), ("server.evaluate.self_s", "s"),
    ("metrics.macro_metrics.self_s", "s"),
    ("trace.overhead_s", "s"), ("failed_share", "1"),
]

# Spelled out here, not read from workloads.WORKLOADS, because importing
# workloads loads NumPy, which must wait until threads are pinned.
WORKLOAD_NAMES = ("single_fedlsm", "multi_label_fedlsm", "fedavg_baselines")


def ratio(num: float, base: float) -> float:
    """num / base, or 0 when the base is empty (a bypassed layer)."""
    return num / base if base else 0.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to it being ready for round 1."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def keep_going(t0: float, walls: list, seconds: float, minimum: int) -> bool:
    """Closed loop: run at least `minimum` items, then only items that are
    expected to finish within `seconds` of t0."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - t0 + statistics.fmean(walls) <= seconds


def check_determinism(ops, reference: dict) -> tuple[list[str], int]:
    """Each (arm, seed) must repeat its first final AUC bit for bit.

    Returns the mismatches and the number of repeats compared.
    """
    out, compared = [], 0
    for r in ops:
        if r.final_auc is None:
            continue
        key = (r.mode, r.seed)
        if key not in reference:
            reference[key] = r.final_auc
            continue
        compared += 1
        want = reference[key]
        if want.hex() != r.final_auc.hex():
            out.append(f"{r.mode} seed {r.seed}: final macro AUC "
                       f"{r.final_auc!r} differs from first run {want!r}")
    return out, compared


def report_ops(ops, tally: OpTally) -> None:
    for r in ops:
        tally.record(r.ok)
        for problem in r.problems:
            print(f"operation {r.mode} seed {r.seed} failed: {problem}",
                  file=sys.stderr)


def measure(wl, seed: int, seconds: float):
    """Untraced run -> (metrics, notes, tally, problems).

    Repeats passes, each running every (arm, seed) once, while a whole
    pass fits in `seconds`, and at least MIN_PASSES of them.  A set-up
    probe runs before each pass, and more after the last, so the set-up
    figure samples the host across the run rather than at its start.
    """
    import workloads

    seeds = workloads.train_seeds(seed)
    feds = {s: workloads.make_federation(wl.task, s) for s in seeds}
    plan = [(mode, s) for s in seeds for mode in wl.modes]
    ops, passes, setups = [], [], []
    t0 = time.perf_counter()
    while keep_going(t0, passes, seconds, MIN_PASSES):
        setups.append(probe_setup(wl.name, seed))
        tp = time.perf_counter()
        ops += [workloads.run_op(feds[s], mode, s) for mode, s in plan]
        passes.append(time.perf_counter() - tp)
    setups += [probe_setup(wl.name, seed)
               for _ in range(SETUP_PROBES - len(setups))]
    return summarise(ops, plan, setups)


def summarise(ops, plan, setups):
    """Figures of the untraced operations -> (metrics, notes, tally,
    problems).  Time and AUC figures with no sample read NaN.

    Times are the best of each (arm, seed)'s successful repeats: round by
    round for the round figures, whole runs for steps/s.
    """
    import workloads
    from arith import OpTally, best_of_repeats, tail_percentile

    tally = OpTally()
    report_ops(ops, tally)
    aucs: dict = {}
    problems, compared = check_determinism(ops, aucs)
    if not compared:
        problems.append("determinism: no (arm, seed) repeat to compare")
    missing = [key for key in plan if key not in aucs]
    if missing:
        problems.append(f"no final AUC for {missing}")
    problems += [f"{mode} seed {s}: final macro AUC {auc:.4f} at or below "
                 "chance" for (mode, s), auc in aucs.items() if not auc > 0.5]

    good = {key: [r for r in ops if r.ok and (r.mode, r.seed) == key]
            for key in plan}
    good = {key: rs for key, rs in good.items() if rs}
    rounds = [t for rs in good.values()
              for t in best_of_repeats([r.round_s for r in rs])]
    best_walls = [min(r.wall_s for r in rs) for rs in good.values()]
    repeats = min((len(rs) for rs in good.values()), default=0)

    nan = float("nan")
    pct, tail, beyond = tail_percentile(rounds) if rounds else (nan, nan, 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "client_steps_per_s": (workloads.STEPS_PER_OP * len(best_walls)
                               / sum(best_walls)) if best_walls else 0.0,
        "round_s_p50": statistics.median(rounds) if rounds else nan,
        "round_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "final_macro_auc": statistics.fmean(aucs.values()) if aucs else nan,
    }
    best = f"best of at least {repeats} repeats"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "client_steps_per_s": f"{len(best_walls)} (arm, seed) runs x "
                              f"{workloads.STEPS_PER_OP} client steps, {best}",
        "round_s_p50": f"{len(rounds)} rounds, each the {best}",
        "round_s_tail": f"p{pct:g} of {len(rounds)} rounds, "
                        f"{beyond} beyond it",
        "final_macro_auc": f"mean over {len(aucs)} (arm, seed) runs, "
                           f"{compared} repeats compared bit for bit",
    }
    return metrics, notes, tally, problems


def layer_metrics(summary: dict, counts) -> dict:
    """Per-layer metrics of one traced pass."""
    import workloads

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
             "children": {}}

    def rec(name):
        return summary.get(name, empty)

    def med(name):
        d = rec(name)["durations"]
        return statistics.median(d) if d else 0.0

    m = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            m[name] = rec(layer)[kind]
    ude = rec("client.ude_batch")
    m["client.ude_batch.pair_yield"] = ratio(
        counts["client.ude_batch.pairs"],
        ude["calls"] * workloads.CLIENT.ude_batch_size)
    m["client.ude_batch.teacher_passes"] = ratio(
        ude["children"].get("nn.forward", 0), ude["calls"])
    m["uncertainty.score_dataset.rows_per_s"] = ratio(
        counts["uncertainty.score_dataset.rows"],
        rec("uncertainty.score_dataset")["total_s"])
    m["client.pseudo.keep_ratio"] = ratio(counts["client.pseudo.kept"],
                                          counts["client.pseudo.verdicts"])
    m["client.local_train.p50_s"] = med("client.local_train")
    m["nn.forward.rows_per_call"] = ratio(counts["nn.forward.rows"],
                                          rec("nn.forward")["calls"])
    m["data.gen_federation.s"] = med("data.gen_federation")
    return m


def traced_pass(wl, seed: int, tracer):
    """Each arm once with every layer function wrapped -> (ops, metrics,
    self-check mismatches)."""
    import workloads

    tracer.reset()
    ops = []
    with tracer.installed(workloads.trace_targets()):
        fed = workloads.make_federation(wl.task, seed)
        for mode in wl.modes:
            tracer.op_id += 1
            tracer.round_id = 0
            bad_before = tracer.counts["client.pseudo.identified_class"]
            r = workloads.run_op(
                fed, mode, seed,
                on_round=lambda rep: setattr(tracer, "round_id", rep.round + 1))
            bad = tracer.counts["client.pseudo.identified_class"] - bad_before
            if bad:
                r.problems.append(f"{bad} kept pseudo labels name a locally "
                                  "identified class")
            ops.append(r)
    summary = tracer.summary()
    calls = {name: rec["calls"] for name, rec in summary.items()}
    mismatches = workloads.check_calls(
        wl, calls, tracer.calls_per_round("client.local_train"))
    return ops, layer_metrics(summary, tracer.counts), mismatches


def trace(wl, seed: int, seconds: float):
    """Traced run -> (metrics, notes, tally, problems).

    Each pass runs every arm once untraced and once traced on the same
    seed, alternating which half goes first; the wall-time difference is
    the tracing overhead.  Reported values are medians over passes.
    """
    import workloads
    from arith import OpTally
    from tracing import Tracer

    s = workloads.train_seeds(seed)[0]
    fed = workloads.make_federation(wl.task, s)
    tracer = Tracer()
    tally = OpTally()
    passes, walls, overheads, problems = [], [], [], []
    aucs: dict = {}
    t0 = time.perf_counter()
    while keep_going(t0, walls, seconds, 1):
        tp = time.perf_counter()
        halves = {}
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            if traced:
                ops, metrics, mismatches = traced_pass(wl, s, tracer)
                problems += [f"self-check: {m}" for m in mismatches]
            else:
                ops = [workloads.run_op(fed, mode, s) for mode in wl.modes]
            report_ops(ops, tally)
            problems += check_determinism(ops, aucs)[0]
            halves[traced] = sum(r.wall_s for r in ops)
        overheads.append(halves[True] - halves[False])
        passes.append(metrics)
        walls.append(time.perf_counter() - tp)

    for name in passes[0]:
        if name.endswith(".calls") and len({p[name] for p in passes}) > 1:
            problems.append(f"self-check: {name} differs between passes: "
                            f"{[p[name] for p in passes]}")
    out = {name: statistics.median(p[name] for p in passes)
           for name in passes[0]}
    out["trace.overhead_s"] = statistics.median(overheads)
    notes = {"trace.overhead_s": f"traced minus untraced wall time of "
                                 f"{len(wl.modes)} run(s), median of "
                                 f"{len(passes)} passes"}
    return out, notes, tally, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = boot.pin_threads()
    try:
        boot.use_source_tree()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = {**workloads.environment(), "nproc": os.cpu_count(),
           "threads": threads, "workload": wl.name, "seed": args.seed,
           "held_out_seed": workloads.held_out_seed(args.seed),
           "train_seeds": workloads.train_seeds(args.seed),
           "seconds": args.seconds, "trace": args.trace}
    print("env " + json.dumps(env), flush=True)

    run = trace if args.trace else measure
    values, notes, tally, problems = run(wl, args.seed, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values["failed_share"] = tally.failed_share
    notes["failed_share"] = f"{tally.failed} of {tally.attempted} runs"
    catalogue = PER_LAYER if args.trace else END_TO_END
    shown = catalogue if args.trace else [*catalogue, ("failed_share", "1")]
    for name, unit in shown:
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalogue},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
