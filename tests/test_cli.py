"""End-to-end CLI behavior: verbs, files, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fedlsm
from fedlsm import nn
from fedlsm.cli import SUMMARY_METRICS, main

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
    assert compare[0] == "metric,mean_a,std_a,mean_b,std_b,delta,se,wins"
    assert len(compare) == 6
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0].startswith("round,")
    assert len(curves) == 1 + TINY["rounds"]


def write_run(path, mode, final_auc):
    """A hand-written run directory: seed s ends on macro_auc final_auc[s]
    and on 0.5 for the other summary metrics."""
    path.mkdir()
    record = {"config": {"mode": mode, "seeds": list(final_auc)},
              "data_fingerprint": "f" * 64}
    (path / "run.json").write_text(json.dumps(record))
    for seed, auc in final_auc.items():
        report = {**dict.fromkeys(SUMMARY_METRICS, 0.5), "macro_auc": auc}
        (path / f"seed{seed}.jsonl").write_text(
            json.dumps({"schema": 1}) + "\n" + json.dumps(report) + "\n")


def compare_rows(tmp_path, auc_a, auc_b):
    write_run(tmp_path / "a", "fedavg_masked", auc_a)
    write_run(tmp_path / "b", "fedlsm", auc_b)
    out = tmp_path / "cmp"
    assert run_cli("compare", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--output-dir", str(out)) == 0
    with open(out / "compare.csv", newline="") as fh:
        return {row["metric"]: row for row in csv.DictReader(fh)}


def test_compare_reports_paired_deltas(tmp_path, capsys):
    # per-seed deltas 0.125, 0 (a tie), 0.25
    rows = compare_rows(tmp_path, {0: 0.5, 1: 0.75, 2: 0.25},
                        {0: 0.625, 1: 0.75, 2: 0.5})
    auc = rows["macro_auc"]
    assert float(auc["delta"]) == 0.125
    assert float(auc["se"]) == pytest.approx(0.125 / math.sqrt(3))
    assert auc["wins"] == "2"
    assert rows["accuracy"]["se"] == "0.0" and rows["accuracy"]["wins"] == "0"
    table = capsys.readouterr().out
    assert "macro_auc" in table and "2/3" in table


def test_compare_one_seed_leaves_se_empty(tmp_path, capsys):
    rows = compare_rows(tmp_path, {4: 0.5}, {4: 0.75})
    auc = rows["macro_auc"]
    assert float(auc["delta"]) == 0.25
    assert auc["se"] == "" and auc["wins"] == "1"
    assert "1/1" in capsys.readouterr().out


def test_compare_rejects_runs_whose_seeds_differ(tmp_path):
    # the fingerprint is what run.json declares, so check the pairing too
    write_run(tmp_path / "a", "fedlsm", {0: 0.5, 1: 0.5})
    write_run(tmp_path / "b", "fedlsm", {0: 0.5})
    assert run_cli("compare", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--output-dir", str(tmp_path / "cmp")) == 1


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


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf,
    pytest.param(10 ** 400, id="integer_past_float_max"),
    pytest.param(-10 ** 400, id="integer_past_-float_max")])
def test_compare_refuses_a_non_finite_metric(tmp_path, capsys, value):
    # json.dumps writes NaN and Infinity, which are not JSON; no run does.
    # A JSON integer has no float limit: 1 and 400 zeros once ended in an
    # OverflowError traceback after the output directory was made.
    write_run(tmp_path / "a", "fedavg_masked", {0: 0.5})
    write_run(tmp_path / "b", "fedlsm", {0: value})
    out = tmp_path / "cmp"
    assert run_cli("compare", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--output-dir", str(out)) == 1
    seed_file = tmp_path / "b" / "seed0.jsonl"
    assert capsys.readouterr().err == (
        f"error: {seed_file}:2: macro_auc: not a finite number\n")
    assert not out.exists()


@pytest.mark.parametrize("old,new,key", [
    ('{"config":', '{"data_fingerprint":"0","config":', "data_fingerprint"),
    ('"mode":"fedlsm"', '"mode":"fedavg_full","mode":"fedlsm"', "mode")],
    ids=["top-level", "nested"])
def test_compare_refuses_a_repeated_key_in_run_json(finished_run, capsys,
                                                    old, new, key):
    run_json = finished_run / "run.json"
    text = run_json.read_text()
    assert old in text
    run_json.write_text(text.replace(old, new, 1))
    assert compare_error(finished_run, capsys) == (
        f"error: {run_json}: repeated key {key!r}\n")
    assert not (finished_run / "cmp").exists()


def test_run_refuses_a_repeated_key_in_the_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    text = json.dumps(TINY)
    assert '"rounds": 2' in text
    path.write_text(text.replace('"rounds": 2', '"rounds": 1, "rounds": 2'))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--output-dir", str(out),
                   "--quiet") == 1
    assert capsys.readouterr().err == (
        f"error: {path}: repeated key 'rounds'\n")
    assert not out.exists()


def test_run_refuses_a_repeated_key_in_an_override(tiny_config, tmp_path,
                                                   capsys):
    # json.loads alone kept the last value and trained at lr 0.2.
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", 'client={"lr": 0.1, "lr": 0.2}', "--quiet") == 1
    assert capsys.readouterr().err == (
        "error: override client: repeated key 'lr'\n")
    assert not out.exists()


def test_compare_refuses_an_unknown_mode(tmp_path, monkeypatch, capsys):
    # The mode names the default output directory: a path in it once
    # wrote the comparison outside the output root.
    write_run(tmp_path / "a", "x/../../escaped", {0: 0.5})
    write_run(tmp_path / "b", "fedavg_masked", {0: 0.5})
    root = tmp_path / "root"
    monkeypatch.setenv("FEDLSM_OUTPUT_DIR", str(root / "out"))
    assert run_cli("compare", str(tmp_path / "a"), str(tmp_path / "b")) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'a' / 'run.json'}: config.mode: unknown mode "
        "'x/../../escaped'\n")
    assert not root.exists()


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


def test_import_leaves_scipy_unloaded():
    # fedlsm is NumPy-only: its one normal quantile is the standard
    # library's, imported only when a multi-label federation is built.
    src = str(Path(fedlsm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fedlsm, fedlsm.cli; "
         "print(sorted(m for m in sys.modules if m == 'statistics' "
         "or m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_exit_code_one_for_config_problems(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run_cli("run", "--config", missing, "--quiet") == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "mode": "warp"}))
    assert run_cli("run", "--config", str(bad), "--quiet") == 1
    assert run_cli("frobnicate") == 1


@pytest.mark.parametrize("setting", ["client.mixup_alpha=0",
                                     "client.ude_batch_size=-1",
                                     "client.lr_decay=-0.5",
                                     "client.tau_l=-1"])
def test_run_rejects_bad_mixup_and_schedule_settings(tiny_config, tmp_path,
                                                     capsys, setting):
    field = setting.split("=")[0].split(".")[1]
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", setting, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: client: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["client.augment.scale_jitter=-3",
                                     "client.augment.drop_prob=2",
                                     "client.augment.sigma_weak=-1"])
def test_run_rejects_bad_augment_settings(tiny_config, tmp_path, capsys,
                                          setting):
    field = setting.split("=")[0].split(".")[2]
    assert run_cli("run", "--config", tiny_config, "--output-dir",
                   str(tmp_path / "out"), "--set", setting, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: client.augment: ") and field in err


@pytest.mark.parametrize("setting", ["client.lr=NaN",
                                     "client.lr=Infinity",
                                     "client.ude_weight=NaN",
                                     "client.frac_h=NaN",
                                     "client.augment.sigma_weak=Infinity",
                                     "client.augment.scale_jitter=Infinity"])
def test_run_rejects_non_finite_client_settings(tiny_config, tmp_path, capsys,
                                                setting):
    key = setting.split("=")[0]
    path, _, field = key.rpartition(".")
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", setting, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and field in err
    assert not out.exists()  # refused before anything trained or was written


@pytest.mark.parametrize("sign", ["", "-"])
def test_run_rejects_an_integer_beyond_float_range(tiny_config, tmp_path,
                                                   capsys, sign):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", f"client.lr={sign}1{'0' * 400}", "--quiet") == 1
    assert capsys.readouterr().err == "error: client.lr: expected a number\n"
    assert not out.exists()


@pytest.mark.parametrize("settings", [["federation.n_test=1"],
                                      ["federation.n_test=-1"],
                                      ["federation.n_val=-1"],
                                      # seed 0 can be scored, seed 2 not
                                      ["seeds=[0,2]", "federation.n_test=2"]])
def test_run_rejects_eval_sets_that_cannot_be_scored(tiny_config, tmp_path,
                                                     capsys, settings):
    field = settings[-1].split("=")[0]
    out = tmp_path / "out"
    sets = [arg for setting in settings for arg in ("--set", setting)]
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   *sets, "--quiet") == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()  # refused before anything trained or was written


@pytest.mark.parametrize("raw", ["1" * 5000, "[" * 100000],
                         ids=["5000-digits", "100000-brackets"])
def test_run_refuses_an_override_too_large_to_parse(tiny_config, tmp_path,
                                                    capsys, raw):
    # 5000 digits pass Python's int conversion limit; 100000 brackets nest
    # past its recursion limit.
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", f"rounds={raw}", "--quiet") == 1
    assert capsys.readouterr().err == (
        "error: override rounds: value too large to parse\n")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["federation.cluster_std=NaN",
                                     "federation.cluster_std=-1.0",
                                     "federation.cluster_sep=Infinity"])
def test_run_rejects_bad_cluster_geometry(tiny_config, tmp_path, capsys,
                                          setting):
    field = setting.split("=")[0]
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_config, "--output-dir", str(out),
                   "--set", setting, "--quiet") == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()  # refused before anything trained or was written


def cli_process(*argv):
    """The fedlsm command run as its own process."""
    src = str(Path(fedlsm.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "fedlsm.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def assert_path_error(proc, path):
    assert proc.returncode == 1
    assert f"error: {path}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_into_an_existing_file_exits_one(tiny_config, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert_path_error(cli_process("run", "--config", tiny_config,
                                  "--output-dir", str(taken), "--quiet"),
                      taken)


def test_compare_into_an_existing_file_exits_one(finished_run, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert_path_error(cli_process("compare", str(finished_run),
                                  str(finished_run), "--output-dir",
                                  str(taken)), taken)


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b'\xff\xfe{"version": 1}')
    assert run_cli("run", "--config", str(path), "--quiet") == 1
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


def test_gradcheck_verb(capsys):
    assert run_cli("gradcheck", "--nets", "3", "--quiet") == 0
    assert "worst relative error" in capsys.readouterr().out


@pytest.mark.parametrize("nets", ["0", "-3"])
def test_gradcheck_rejects_fewer_than_one_net(capsys, nets):
    # with no net nothing is checked, not even --eps
    for extra in ([], ["--eps", "5"]):
        assert run_cli("gradcheck", "--nets", nets, "--quiet", *extra) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --nets must be >= 1, got {nets}\n"
        assert captured.out == ""


def test_gradcheck_rejects_bad_eps():
    assert run_cli("gradcheck", "--nets", "1", "--eps", "0.5",
                   "--quiet") == 1
