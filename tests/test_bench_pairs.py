"""The summary of scripts/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def pairs_of(parent, change, name="ops_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_nine_wins_of_ten_beyond_the_spread_is_a_gain(script):
    parent = [50, 51, 49, 52, 48, 50, 53, 47, 50, 51]
    change = [70, 72, 69, 71, 73, 68, 70, 74, 71, 45]
    [row] = script.summarize(pairs_of(parent, change), BETTER)
    assert row["metric"] == "ops_per_s"
    assert (row["wins"], row["pairs"], row["gain"]) == (9, 10, True)
    assert row["parent"] == (49.25, 50.0, 51.0)
    assert row["change"] == (69.25, 70.5, 71.75)


def test_eight_wins_of_ten_is_no_gain(script):
    parent = [50] * 10
    change = [70] * 8 + [50, 40]
    [row] = script.summarize(pairs_of(parent, change), BETTER)
    assert (row["wins"], row["gain"]) == (8, False)


def test_ties_count_for_neither_side(script):
    [row] = script.summarize(pairs_of([5, 5, 6], [5, 4, 7], "op_p50_ms"), BETTER)
    assert (row["wins"], row["pairs"]) == (1, 3)


def test_medians_within_the_parent_spread_are_no_gain(script):
    parent = [40, 60, 45, 55, 50, 42, 58, 47, 53, 50]
    change = [p + 1 for p in parent]
    [row] = script.summarize(pairs_of(parent, change), BETTER)
    assert row["wins"] == 10
    assert row["parent"][2] - row["parent"][0] > 1
    assert row["gain"] is False


def test_lower_is_better_and_a_loss_is_no_gain(script):
    parent = [10.0, 10.2, 9.9, 10.1]
    [row] = script.summarize(pairs_of(parent, [p - 2 for p in parent], "op_p50_ms"), BETTER)
    assert (row["wins"], row["gain"]) == (4, True)
    [row] = script.summarize(pairs_of(parent, [p + 2 for p in parent], "op_p50_ms"), BETTER)
    assert (row["wins"], row["gain"]) == (0, False)


def test_one_pair_and_metrics_missing_somewhere(script):
    pairs = [({"ops_per_s": 2.0, "op_p50_ms": 1.0, "other": 3},
              {"ops_per_s": 3.0, "other": 4})]
    [row] = script.summarize(pairs, BETTER)
    assert row["metric"] == "ops_per_s"
    assert row["parent"] == (2.0, 2.0, 2.0) and row["change"] == (3.0, 3.0, 3.0)
    assert script.summarize([], BETTER) == []


def test_rows_print_and_seeds_parse(script):
    lines = script.format_rows(script.summarize(pairs_of([50, 50], [70, 70]), BETTER))
    assert lines[2] == "| `ops_per_s` | 50 [50, 50] | 70 [70, 70] | 1.400 | 2/2 | yes |"
    assert script.parse_seeds("401-403") == [401, 402, 403]
    assert script.parse_seeds("7") == [7]
