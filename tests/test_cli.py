"""End-to-end CLI behavior: verbs, files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@pytest.fixture()
def finished_run(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--quiet") == 0
    return out


def compare_error(run_dir, capsys):
    capsys.readouterr()
    assert run_cli("compare", str(run_dir), str(run_dir), "--output-dir",
                   str(run_dir / "cmp")) == 1
    return capsys.readouterr().err


def test_compare_rejects_truncated_run_json(finished_run, capsys):
    run_json = finished_run / "run.json"
    run_json.write_bytes(run_json.read_bytes()[:40])
    assert f"error: {run_json}:1: invalid JSON" in compare_error(
        finished_run, capsys)


def test_compare_rejects_run_json_without_seeds(finished_run, capsys):
    run_json = finished_run / "run.json"
    record = json.loads(run_json.read_text())
    del record["config"]["seeds"]
    run_json.write_text(json.dumps(record))
    assert f"error: {run_json}: missing config.seeds" in compare_error(
        finished_run, capsys)


def test_compare_rejects_non_json_report_line(finished_run, capsys):
    seed_file = finished_run / "seed0.jsonl"
    lines = seed_file.read_text().splitlines()
    lines[2] = lines[2][:-5]
    seed_file.write_text("\n".join(lines) + "\n")
    assert f"error: {seed_file}:3: invalid JSON" in compare_error(
        finished_run, capsys)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["config", "seeds", "mode",
                                       "data_fingerprint"]), inner),
    max_leaves=8)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.binary(max_size=200)
       | json_values.map(lambda v: json.dumps(v).encode()))
def test_compare_fuzz_run_json_loads_or_exits_one(finished_run, capsys, blob):
    # Any run.json either loads or is refused with exit 1; main() raising
    # would fail the test with the traceback.
    (finished_run / "run.json").write_bytes(blob)
    assert run_cli("compare", str(finished_run), str(finished_run),
                   "--output-dir", str(finished_run / "cmp")) in (0, 1)


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
