"""Command line front end.

Verbs:
  run        train one mode across seeds; JSONL per seed plus a summary CSV
  compare    diff two finished runs that trained on identical data
  gradcheck  finite-difference audit of the backward pass

Report files are deterministic byte for byte given the config: anything
wall-clock-dependent goes to meta.json, which carries no results.
Exit codes: 0 success, 1 config or input problem, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import nn
from .client import loss_identified, loss_ude, loss_unknown
from .config import (ExperimentConfig, apply_overrides, config_from_dict,
                     data_fingerprint, load_config, read_json)
from .data import gen_federation
from .errors import ConfigError, NumericError, ParseError
from .server import MODES, run_federation

SUMMARY_METRICS = ("macro_auc", "accuracy", "macro_f1", "macro_precision",
                   "macro_recall")
CURVE_METRICS = ("macro_auc", "accuracy", "macro_f1")
GRADCHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise ConfigError(message)


def _dumps(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as e:
        raise NumericError(f"non-finite value in report: {e}") from e


def _out_root() -> Path:
    return Path(os.environ.get("FEDLSM_OUTPUT_DIR", "runs"))


def _resolve_config(args) -> ExperimentConfig:
    raw = load_config(args.config)
    apply_overrides(raw, args.set)
    return config_from_dict(raw)


# ---------------------------------------------------------------- run

def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    # Every seed's data first, so a federation that cannot be scored is
    # refused before anything trains or is written.
    feds = [gen_federation(replace(cfg.federation, seed=s))
            for s in cfg.seeds]
    if args.output_dir:
        outdir = Path(args.output_dir)
    else:
        outdir = _out_root() / (args.name or cfg.mode)
    outdir.mkdir(parents=True, exist_ok=True)

    record = {"config": asdict(cfg),
              "data_fingerprint": data_fingerprint(cfg)}
    (outdir / "run.json").write_text(_dumps(record) + "\n", encoding="utf-8")

    finals = []
    for s, fed in zip(cfg.seeds, feds):
        lines = [_dumps({"schema": 1, "mode": cfg.mode, "seed": s,
                         "data_fingerprint": record["data_fingerprint"]})]

        def on_round(rep, params, _seed=s):
            lines.append(_dumps(rep.as_dict()))
            if not args.quiet:
                print(f"seed {_seed} round {rep.round + 1}/{cfg.rounds} "
                      f"macro_auc={rep.metrics.macro_auc:.4f} "
                      f"accuracy={rep.metrics.accuracy:.4f}")

        result = run_federation(
            fed, cfg.client, rounds=cfg.rounds, mode=cfg.mode, seed=s,
            hidden_dims=tuple(cfg.hidden_dims),
            proxy_mode=cfg.proxy_aggregation, on_round=on_round)
        (outdir / f"seed{s}.jsonl").write_text("\n".join(lines) + "\n",
                                               encoding="utf-8")
        if args.checkpoint:
            ckpt_dir = outdir / "checkpoints"
            ckpt_dir.mkdir(exist_ok=True)
            nn.save_params(result.params, str(ckpt_dir / f"seed{s}.ckpt"))
        finals.append(result.reports[-1].metrics.as_dict())

    rows = ["metric,mean,std"]
    for metric in SUMMARY_METRICS:
        vals = np.array([f[metric] for f in finals])
        rows.append(f"{metric},{float(vals.mean())!r},{float(vals.std())!r}")
    (outdir / "summary.csv").write_text("\n".join(rows) + "\n",
                                        encoding="utf-8")

    meta = {"command": "run", "config_path": args.config,
            "completed": datetime.datetime.now().isoformat()}
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                      encoding="utf-8")
    if not args.quiet:
        print(f"wrote {outdir}")
    return 0


# ---------------------------------------------------------------- compare

def _field(obj, dotted: str, kind, where):
    """obj[a][b]... for dotted key a.b..., which must hold a `kind`."""
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"{where}: missing {dotted}")
        obj = obj[key]
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise ParseError(f"{where}: {dotted} has the wrong type")
    return obj


def _load_run(path: Path):
    run_file = path / "run.json"
    if not run_file.is_file():
        raise ConfigError(f"{path}: not a run directory (missing run.json)")
    record = read_json(run_file)
    seeds = _field(record, "config.seeds", list, run_file)
    # The mode names the default output directory and the curve columns.
    mode = _field(record, "config.mode", str, run_file)
    if mode not in MODES:
        raise ParseError(f"{run_file}: config.mode: unknown mode {mode!r}")
    _field(record, "data_fingerprint", str, run_file)
    if not seeds or any(type(s) is not int for s in seeds):
        raise ParseError(f"{run_file}: config.seeds must list integers")
    curves = {}
    for s in seeds:
        seed_file = path / f"seed{s}.jsonl"
        if not seed_file.is_file():
            raise ConfigError(f"{path}: missing report for seed {s}")
        reports = read_json(seed_file, lines=True)[1:]
        if not reports:
            raise ConfigError(f"{seed_file}: no round reports")
        for i, rep in enumerate(reports, 2):
            for metric in SUMMARY_METRICS:
                value = _field(rep, metric, (int, float), f"{seed_file}:{i}")
                if abs(value) > sys.float_info.max:  # an int beyond floats
                    raise ParseError(f"{seed_file}:{i}: {metric}: not a "
                                     "finite number")
        curves[s] = reports
    return record, curves


def cmd_compare(args) -> int:
    path_a, path_b = Path(args.run_a), Path(args.run_b)
    rec_a, curves_a = _load_run(path_a)
    rec_b, curves_b = _load_run(path_b)
    if rec_a["data_fingerprint"] != rec_b["data_fingerprint"]:
        raise ConfigError(
            "runs are not comparable: they trained on different data "
            f"({rec_a['data_fingerprint'][:12]} vs "
            f"{rec_b['data_fingerprint'][:12]})")
    if list(curves_a) != list(curves_b):
        raise ConfigError("runs are not comparable: their seed lists differ")
    label_a = rec_a["config"]["mode"]
    label_b = rec_b["config"]["mode"]
    if label_a == label_b:
        label_a, label_b = f"{label_a}_a", f"{label_b}_b"

    if args.output_dir:
        outdir = Path(args.output_dir)
    else:
        outdir = _out_root() / f"compare-{label_a}-vs-{label_b}"
    outdir.mkdir(parents=True, exist_ok=True)

    # Per-seed deltas b - a, paired over the shared seed list.
    rows = ["metric,mean_a,std_a,mean_b,std_b,delta,se,wins"]
    deltas = {}
    for metric in SUMMARY_METRICS:
        va = np.array([curves_a[s][-1][metric] for s in curves_a])
        vb = np.array([curves_b[s][-1][metric] for s in curves_a])
        d = vb - va
        delta = float(d.mean())
        se = float(d.std(ddof=1) / np.sqrt(d.size)) if d.size > 1 else None
        wins = int(np.count_nonzero(d > 0))  # a tie is no one's win
        deltas[metric] = (float(va.mean()), float(vb.mean()), delta, se,
                          wins)
        rows.append(f"{metric},{float(va.mean())!r},{float(va.std())!r},"
                    f"{float(vb.mean())!r},{float(vb.std())!r},{delta!r},"
                    f"{'' if se is None else repr(se)},{wins}")
    (outdir / "compare.csv").write_text("\n".join(rows) + "\n",
                                        encoding="utf-8")

    n_rounds = min(min(len(c) for c in curves_a.values()),
                   min(len(c) for c in curves_b.values()))
    header = ["round"]
    for metric in CURVE_METRICS:
        header += [f"{metric}_{label_a}", f"{metric}_{label_b}"]
    curve_rows = [",".join(header)]
    for r in range(n_rounds):
        cells = [str(r)]
        for metric in CURVE_METRICS:
            ma = float(np.mean([c[r][metric] for c in curves_a.values()]))
            mb = float(np.mean([c[r][metric] for c in curves_b.values()]))
            cells += [repr(ma), repr(mb)]
        curve_rows.append(",".join(cells))
    (outdir / "curves.csv").write_text("\n".join(curve_rows) + "\n",
                                       encoding="utf-8")

    n = len(curves_a)
    print(f"{'metric':<16} {label_a:>12} {label_b:>12} {'delta':>9} "
          f"{'se':>8} {'wins':>7}")
    for metric, (ma, mb, delta, se, wins) in deltas.items():
        se = "-" if se is None else f"{se:.4f}"
        print(f"{metric:<16} {ma:>12.4f} {mb:>12.4f} {delta:>+9.4f} "
              f"{se:>8} {f'{wins}/{n}':>7}")
    print(f"wrote {outdir}")
    return 0


# ---------------------------------------------------------------- gradcheck

def _gradcheck_cases(rng: np.random.Generator, m: int):
    """Loss closures covering every term that produces gradients."""
    def supervised_single(batch_n):
        known = np.repeat(rng.random((batch_n, 1)) < 0.7, m, axis=1)
        # values are zero where no label is known
        values = np.eye(m)[rng.integers(m, size=batch_n)] * known
        return lambda logits: loss_identified(logits, values, known, "single")

    def supervised_multi(batch_n):
        known = rng.random((batch_n, m)) < 0.6
        values = np.where(known, rng.random((batch_n, m)) < 0.4, 0.0)
        weights = 1.0 + 3.0 * rng.random(m)
        return lambda logits: loss_identified(logits, values, known, "multi",
                                              weights)

    def pseudo_single(batch_n):
        kept = rng.random(batch_n) < 0.6
        klass = rng.integers(m, size=batch_n)
        hits = kept[:, None] & (klass[:, None] == np.arange(m))
        return lambda logits: loss_unknown(logits, hits, "single")

    def pseudo_multi(batch_n):
        state = rng.integers(-1, 2, size=(batch_n, m))
        return lambda logits: loss_unknown(logits, state == 1, "multi",
                                           state == -1)

    def mix_single(batch_n):
        targets = rng.dirichlet(np.ones(m), size=batch_n)
        return lambda logits: loss_ude(logits, targets, "single")

    def mix_multi(batch_n):
        targets = rng.random((batch_n, m))
        valid = rng.random((batch_n, m)) < 0.7
        return lambda logits: loss_ude(logits, targets, "multi", valid)

    return [supervised_single, supervised_multi, pseudo_single, pseudo_multi,
            mix_single, mix_multi]


def run_gradcheck(nets: int, eps: float, seed: int, report=None) -> float:
    """Finite-difference audit across random nets and all loss terms.

    Returns the worst relative error seen.
    """
    if nets < 1:
        raise ConfigError(f"--nets must be >= 1, got {nets}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(nets):
        d = int(rng.integers(3, 9))
        hidden = [int(rng.integers(4, 9))
                  for _ in range(int(rng.integers(1, 3)))]
        m = int(rng.integers(2, 6))
        params = nn.init_params([d, *hidden], m,
                                seed=int(rng.integers(2 ** 31)))
        batch = rng.normal(size=(int(rng.integers(2, 5)), d))
        case = _gradcheck_cases(rng, m)[i % 6]
        err = nn.gradcheck(params, batch, case(batch.shape[0]), eps=eps)
        worst = max(worst, err)
        if report:
            report(i, err)
    return worst


def cmd_gradcheck(args) -> int:
    def report(i, err):
        if not args.quiet:
            print(f"net {i:3d}: max rel err {err:.3e}")

    worst = run_gradcheck(args.nets, args.eps, args.seed, report)
    print(f"gradcheck: worst relative error {worst:.3e} "
          f"over {args.nets} nets (tolerance {GRADCHECK_TOL:.0e})")
    if worst >= GRADCHECK_TOL:
        raise NumericError(f"gradient check failed: {worst:.3e} >= "
                           f"{GRADCHECK_TOL:.0e}")
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedlsm",
                     description="Federated learning simulator for clients "
                                 "whose label sets only partially overlap.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="train one mode across seeds")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config key, e.g. client.lr=0.001")
    p_run.add_argument("--output-dir", help="exact output directory "
                       "(default: $FEDLSM_OUTPUT_DIR or ./runs, plus name)")
    p_run.add_argument("--name", help="run name under the output root "
                                      "(default: the mode)")
    p_run.add_argument("--checkpoint", action="store_true",
                       help="save final model parameters per seed")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="diff two runs trained on identical data")
    p_cmp.add_argument("run_a", help="baseline run directory")
    p_cmp.add_argument("run_b", help="candidate run directory")
    p_cmp.add_argument("--output-dir")
    p_cmp.set_defaults(func=cmd_compare)

    p_gc = sub.add_parser("gradcheck",
                          help="audit analytic gradients numerically")
    p_gc.add_argument("--nets", type=int, default=12)
    p_gc.add_argument("--eps", type=float, default=1e-5)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--quiet", action="store_true")
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a path that cannot be read or written
        name = f"{e.filename}: " if e.filename else ""
        print(f"error: {name}{e.strerror or e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
