"""Check that this checkout trains exactly as a parent revision does.

    python3 tools/same_results.py --parent <rev>

The parent tree is unpacked from `git archive <rev>` into a temporary
directory; the change side is this checkout's working tree.  Both run
`fedlsm run --checkpoint` with the benchmark's federation, client and
round settings (bench/workloads.py) for seeds 0 and 1, on both tasks and
in every arm the acceptance gates train: the three modes, then fedlsm
without MixUp (client.ude_weight=0) and with sample-count proxies
(proxy_aggregation=fedavg).  Then each tree runs `fedlsm compare` of
fedavg_masked against fedlsm on each task, so compare.csv and curves.csv
are checked too.  Every output file except meta.json is compared byte
for byte.  For a JSON or JSONL file that differs, each differing field
path is printed with its largest relative difference over lines,
clients and rounds ("differs" for a missing or non-numeric field).
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [0, 1]
TASKS = ("single", "multi")
# arm name -> its --set overrides
ARMS = {"fedlsm": ["mode=fedlsm"],
        "fedavg_masked": ["mode=fedavg_masked"],
        "fedavg_full": ["mode=fedavg_full"],
        "no_mix": ["mode=fedlsm", "client.ude_weight=0"],
        "no_weighted_proxies": ["mode=fedlsm", "proxy_aggregation=fedavg"]}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_config() -> dict:
    """The benchmark's settings as a run config.  Client keys appear only
    where they differ from the defaults, so an older tree accepts them."""
    sys.path.insert(0, str(ROOT / "src"))
    from fedlsm.client import ClientConfig

    wl = _load("workloads", ROOT / "bench" / "workloads.py")
    federation = asdict(wl.FEDERATION)
    for key in ("task", "seed"):  # set per run
        del federation[key]
    defaults = asdict(ClientConfig())
    client = {k: v for k, v in asdict(wl.CLIENT).items() if v != defaults[k]}
    return {"version": 1, "rounds": wl.ROUNDS, "seeds": SEEDS,
            "hidden_dims": list(wl.HIDDEN_DIMS), "federation": federation,
            "client": client}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def field_diffs(a, b) -> dict[str, float]:
    """{field path: largest relative difference} between two JSON values.

    List indices collapse to "[]", so one path covers every client and
    round; a top-level list (the lines of a JSONL file) adds nothing to
    the path.  A field on one side only, a non-numeric mismatch or a
    list-length mismatch counts as inf.
    """
    out: dict[str, float] = {}

    def note(path: str, diff: float) -> None:
        out[path] = max(out.get(path, 0.0), diff)

    def walk(x, y, path: str) -> None:
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                sub = f"{path}.{key}" if path else key
                if key in x and key in y:
                    walk(x[key], y[key], sub)
                else:
                    note(sub, math.inf)
        elif isinstance(x, list) and isinstance(y, list):
            item = f"{path}[]" if path else ""
            if len(x) != len(y):
                note(item or "(lines)", math.inf)
            for u, v in zip(x, y):
                walk(u, v, item)
        elif _is_number(x) and _is_number(y):
            if x != y:
                note(path, abs(x - y) / max(abs(x), abs(y)))
        elif x != y or type(x) is not type(y):
            note(path, math.inf)

    walk(a, b, "")
    return out


def jsonl_diffs(text_a: str, text_b: str) -> dict[str, float]:
    """field_diffs of two JSON or JSONL texts, line against line."""
    return field_diffs([json.loads(line) for line in text_a.splitlines()],
                       [json.loads(line) for line in text_b.splitlines()])


def run_sides(trees: dict[str, Path], argv, label: str) -> None:
    """`python -m fedlsm.cli *argv(side)` on every tree, side by side."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    procs = []
    for side, tree in trees.items():
        cmd = [sys.executable, "-m", "fedlsm.cli", *argv(side)]
        procs.append((side, subprocess.Popen(
            cmd, cwd=tree, env=dict(env, PYTHONPATH=str(tree / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)))
    for side, proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"{side} {label}: exit {proc.returncode}\n{err}")
    print(f"ran {label}", flush=True)


def run_all(trees: dict[str, Path], out: Path, config: Path) -> None:
    """Every (task, arm) run, then each task's fedavg_masked-vs-fedlsm
    compare, on every tree."""
    for task in TASKS:
        for arm, sets in ARMS.items():
            run_sides(trees, lambda side: [
                "run", "--config", str(config),
                *(arg for s in sets for arg in ("--set", s)),
                "--set", f"federation.task={task}", "--output-dir",
                str(out / side / f"{task}_{arm}"), "--checkpoint", "--quiet"],
                f"{task} {arm}")
    for task in TASKS:
        run_sides(trees, lambda side: [
            "compare", str(out / side / f"{task}_fedavg_masked"),
            str(out / side / f"{task}_fedlsm"), "--output-dir",
            str(out / side / f"{task}_compare")], f"{task} compare")


def compare_trees(a: Path, b: Path) -> int:
    """Print every difference between output trees a and b; returns the
    number of files that differ."""
    names = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()
                    and p.name != "meta.json"})
    differing = 0
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {'parent' if pa.is_file() else 'change'}")
        elif pa.read_bytes() == pb.read_bytes():
            continue
        elif pa.suffix in (".json", ".jsonl"):
            diffs = jsonl_diffs(pa.read_text(), pb.read_text())
            for path, diff in sorted(diffs.items()):
                shown = "differs" if math.isinf(diff) else f"{diff:.3g}"
                print(f"{name}: {path}: {shown}")
            if not diffs:
                print(f"{name}: bytes differ, fields equal")
        else:
            print(f"{name}: bytes differ")
        differing += 1
    print(f"{len(names) - differing} of {len(names)} files byte-identical")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent commit")
    args = parser.parse_args(argv)
    bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bench_pairs.unpack(args.parent, tmp / "tree")
        config = tmp / "config.json"
        config.write_text(json.dumps(bench_config()))
        run_all({"parent": tmp / "tree", "change": ROOT}, tmp / "out", config)
        differing = compare_trees(tmp / "out" / "parent",
                                  tmp / "out" / "change")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
