"""Paired benchmark of a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent <rev> --pr <n>

Writes BENCH_<n>.json at the repository root.  The parent tree is
unpacked from `git archive <rev>` into a temporary directory; the change
side is this checkout's working tree.  For pair i = 0, ..., 9 and every
workload in BENCHMARK.json, `bench/run.py --seed i` runs on both trees
back to back, the parent first on even i and the change first on odd i.
Then each workload gets one held-out pair (at the held-out seed of seed
0) and one traced pair (--trace 1 at seed 0).  The file is rewritten
after every run, so an interrupted session keeps the pairs that
finished.

Layout: `summary` (per workload and end-to-end metric, each side's
median and quartiles, the pairs the change won and tied, the ratio of
the medians, the parent's interquartile range, and two verdicts:
`gap_over_iqr`, the medians differ in the better direction by more than
that range, and `beyond_bound`, the change's median is worse than the
parent's by more than the metric's BENCHMARK.json bound, relative to the
parent's median),
`held_out_final_macro_auc`, `traced` (each side's per-layer metrics)
and `runs` (the final JSON line of every bench/run.py run).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 1_000_000  # bench/workloads.py: held_out_seed(0)
PAIRS = 10  # seeded pairs per workload
SIDES = ("parent", "change")


def unpack(rev: str, dest: Path) -> None:
    """Extract the tree of git revision `rev` into dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, seed: int, trace: int,
              seconds: float) -> tuple[dict, dict | None]:
    """One bench/run.py run -> (record, env line)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = round(time.perf_counter() - t0, 1)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "wall_s": wall,
            "result": result}, env


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linear interpolation between order statistics."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def compare(pairs: list[tuple[float, float]], higher_better: bool,
            bound: float) -> dict:
    """Summary of (parent, change) values of one metric over pairs; bound
    is the metric's allowed relative worsening."""
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    sign = 1.0 if higher_better else -1.0
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    return {
        "parent": parent, "change": change,
        "change_better": sum(sign * (c - p) > 0 for p, c in pairs),
        "ties": sum(c == p for p, c in pairs),
        "median_ratio": (change["median"] / parent["median"]
                         if parent["median"] else float("nan")),
        "parent_iqr": iqr,
        "gap_over_iqr": gain > iqr,
        "beyond_bound": -gain > bound * abs(parent["median"]),
    }


def value(run: dict, metric: str) -> float | None:
    result = run["result"]
    if run["returncode"] != 0 or result is None:
        return None
    return result["metrics"].get(metric, {}).get("value")


def summarise(runs: list[dict], workloads: list[str],
              end_to_end: list[dict]) -> dict:
    """Per workload and metric, the pairs where both sides reported it."""
    out = {}
    for wl in workloads:
        untraced = [r for r in runs if r["workload"] == wl
                    and r["trace"] == 0 and r["seed"] != HELD_OUT_SEED]
        seeds = sorted({r["seed"] for r in untraced})
        by_side = {(r["seed"], r["side"]): r for r in untraced}
        complete = [s for s in seeds
                    if all((s, side) in by_side for side in SIDES)]
        entry = {"pairs": len(complete)}
        for metric in end_to_end:
            pairs = [(value(by_side[s, "parent"], metric["name"]),
                      value(by_side[s, "change"], metric["name"]))
                     for s in complete]
            pairs = [p for p in pairs if None not in p]
            if pairs:
                entry[metric["name"]] = compare(
                    pairs, metric["better"] == "higher", metric["bound"])
        out[wl] = entry
    return out


def held_out(runs: list[dict], workloads: list[str]) -> dict:
    return {wl: {r["side"]: value(r, "final_macro_auc") for r in runs
                 if r["workload"] == wl and r["seed"] == HELD_OUT_SEED}
            for wl in workloads}


def traced(runs: list[dict], workloads: list[str]) -> dict:
    out = {}
    for wl in workloads:
        entry = {}
        for r in runs:
            if r["workload"] == wl and r["trace"] == 1 and r["result"]:
                entry[r["side"]] = {k: v["value"] for k, v
                                    in r["result"]["metrics"].items()}
                entry[f"{r['side']}_correct"] = r["result"]["correct"]
        out[wl] = entry
    return out


def plan(workloads: list[str]) -> list[tuple[str, int, int, str]]:
    """(workload, seed, trace, side run first) of each pair, in run order.

    Pair i of a workload runs the parent first when i is even."""
    steps = [(wl, i, 0, SIDES[i % 2]) for i in range(PAIRS)
             for wl in workloads]
    steps += [(wl, HELD_OUT_SEED, 0, "parent") for wl in workloads]
    return steps + [(wl, 0, 1, "parent") for wl in workloads]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent commit")
    parser.add_argument("--pr", required=True, help="suffix of BENCH_<pr>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out_path = ROOT / f"BENCH_{args.pr}.json"
    runs, env = [], None
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        unpack(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for wl, seed, trace, first in plan(workloads):
            order = SIDES if first == "parent" else SIDES[::-1]
            for side in order:
                record, run_env = run_bench(trees[side], wl, seed, trace,
                                            seconds)
                runs.append({**record, "side": side, "first": first})
                env = env or run_env
                print(f"{wl} seed {seed} trace {trace} {side}: "
                      f"rc {record['returncode']}, {record['wall_s']} s",
                      flush=True)
            doc = {
                "description": (
                    f"Paired benchmark runs of the parent commit "
                    f"({args.parent}) and this change, written by "
                    "tools/bench_pairs.py. Each pair runs one workload seed "
                    "on both trees back to back, alternating which tree goes "
                    "first; every record is the final JSON line "
                    "bench/run.py printed."),
                "command": (f"python3 bench/run.py --workload <workload> "
                            f"--seed <seed> --seconds {seconds:g} "
                            "--trace <0|1>"),
                "env": env,
                "summary": summarise(runs, workloads, bench["end_to_end"]),
                "held_out_final_macro_auc": held_out(runs, workloads),
                "traced": traced(runs, workloads),
                "runs": runs,
            }
            out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
