"""Field comparison of tools/same_results.py."""

import importlib.util
import json
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_results",
    Path(__file__).resolve().parent.parent / "tools" / "same_results.py")
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)


def test_equal_values_give_no_differences():
    doc = {"round": 3, "client_stats": [{"loss": 0.5, "id": 1}], "x": None}
    assert same_results.field_diffs(doc, json.loads(json.dumps(doc))) == {}


def test_differences_keep_the_largest_relative_one_per_path():
    a = {"client_stats": [{"loss": 1.0}, {"loss": 2.0}], "auc": 0.5}
    b = {"client_stats": [{"loss": 1.5}, {"loss": 2.0 + 1e-9}], "auc": 0.5}
    diffs = same_results.field_diffs(a, b)
    assert diffs == {"client_stats[].loss": 0.5 / 1.5}


def test_missing_fields_and_type_changes_count_as_inf():
    diffs = same_results.field_diffs(
        {"config": {"lr": 0.1, "use_pseudo": True}, "mode": "a", "n": 1},
        {"config": {"lr": 0.1}, "mode": "b", "n": True})
    assert diffs == {"config.use_pseudo": math.inf, "mode": math.inf,
                     "n": math.inf}
    assert same_results.field_diffs({"v": [1, 2]}, {"v": [1]}) == {
        "v[]": math.inf}


def test_jsonl_lines_compare_in_order_without_a_line_index():
    a = '{"h": 1}\n{"r": 0, "auc": 0.25}\n{"r": 1, "auc": 0.5}\n'
    b = '{"h": 1}\n{"r": 0, "auc": 0.25}\n{"r": 1, "auc": 0.75}\n'
    assert same_results.jsonl_diffs(a, b) == {"auc": 0.25 / 0.75}
    assert same_results.jsonl_diffs(a, a + '{"r": 2}\n') == {
        "(lines)": math.inf}
