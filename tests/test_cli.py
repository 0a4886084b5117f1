"""End-to-end CLI behavior: verbs, files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedlsm
from fedlsm import nn
from fedlsm.cli import main

TINY = {
    "version": 1,
    "mode": "fedlsm",
    "rounds": 2,
    "seeds": [0],
    "hidden_dims": [6],
    "federation": {"n_clients": 2, "n_classes": 3, "classes_per_client": 2,
                   "feature_dim": 4, "samples_per_client": 20, "n_val": 10,
                   "n_test": 20},
    "client": {"local_iters": 2, "batch_size": 8, "lr": 0.003,
               "ude_batch_size": 2},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_reports_and_summary(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--quiet") == 0
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["mode"] == "fedlsm"
    assert "data_fingerprint" in record

    lines = (out / "seed0.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head["seed"] == 0 and head["mode"] == "fedlsm"
    assert len(lines) == 1 + TINY["rounds"]
    rep = json.loads(lines[-1])
    assert {"round", "macro_auc", "accuracy", "client_stats"} <= set(rep)

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "metric,mean,std"
    assert any(row.startswith("macro_auc,") for row in summary)
    assert (out / "meta.json").is_file()


def test_run_is_deterministic_across_invocations(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(a),
                   "--quiet") == 0
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(b),
                   "--quiet") == 0
    assert (a / "seed0.jsonl").read_bytes() == (b / "seed0.jsonl").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_run_checkpoint_roundtrip(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--checkpoint", "--quiet") == 0
    params = nn.load_params(str(out / "checkpoints" / "seed0.ckpt"))
    assert params.num_classes == 3
    assert params.dims == (4, 6)


def test_run_honors_output_env(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("FEDLSM_OUTPUT_DIR", str(tmp_path / "root"))
    assert run_cli("run", "--config", tiny_config, "--name", "probe",
                   "--quiet") == 0
    assert (tmp_path / "root" / "probe" / "summary.csv").is_file()


def test_run_set_overrides(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", "mode=fedavg_masked", "--set", "rounds=1",
                   "--quiet") == 0
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["mode"] == "fedavg_masked"
    lines = (out / "seed0.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_compare_modes(tiny_config, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(a),
                   "--set", "mode=fedavg_masked", "--quiet") == 0
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(b),
                   "--quiet") == 0
    out = tmp_path / "cmp"
    assert run_cli("compare", str(a), str(b), "--output-dir", str(out)) == 0
    table = capsys.readouterr().out
    assert "fedlsm" in table and "fedavg_masked" in table
    compare = (out / "compare.csv").read_text().splitlines()
    assert compare[0] == "metric,mean_a,std_a,mean_b,std_b,delta"
    assert len(compare) == 6
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0].startswith("round,")
    assert len(curves) == 1 + TINY["rounds"]


def test_compare_rejects_different_data(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(a),
                   "--quiet") == 0
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(b),
                   "--set", "federation.samples_per_client=24",
                   "--quiet") == 0
    assert run_cli("compare", str(a), str(b),
                   "--output-dir", str(tmp_path / "cmp")) == 1


def test_compare_rejects_non_run_dir(tmp_path):
    (tmp_path / "stuff").mkdir()
    assert run_cli("compare", str(tmp_path / "stuff"),
                   str(tmp_path / "stuff")) == 1


def test_gen_data_verb_is_gone(tiny_config, tmp_path):
    assert run_cli("gen-data", "--config", tiny_config,
                   "--output-dir", str(tmp_path / "data")) == 1


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; nothing needs it.
    src = str(Path(fedlsm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fedlsm, fedlsm.cli; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_exit_code_one_for_config_problems(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run_cli("run", "--config", missing, "--quiet") == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "mode": "warp"}))
    assert run_cli("run", "--config", str(bad), "--quiet") == 1
    assert run_cli("frobnicate") == 1


def test_gradcheck_verb(capsys):
    assert run_cli("gradcheck", "--nets", "3", "--quiet") == 0
    assert "worst relative error" in capsys.readouterr().out


def test_gradcheck_rejects_bad_eps():
    assert run_cli("gradcheck", "--nets", "1", "--eps", "0.5",
                   "--quiet") == 1
