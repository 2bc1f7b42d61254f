"""The summary of scripts/bench_pairs.py on synthetic pairs of runs, the
byte-compiling of each checkout before the first pair, its BENCH file and
import-time parser on canned input, and the driver scripts/passes.py: one
seed syntax, workload list and command run for all four scripts."""

import importlib.util
import json
import os
import platform
import struct

import pytest

from gradedlie.cli import main as cli_main
from helpers import load_script, script_fixture

script = script_fixture("bench_pairs")


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
    assert script.parse_seeds("1,2,3") == [1, 2, 3]
    assert script.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert script.parse_seeds("5-5") == [5]
    for bad in ("5-1", "", "1,", "a", "1-", "-3", "1-2-3"):
        with pytest.raises(ValueError):
            script.parse_seeds(bad)


@pytest.mark.parametrize("name, argv", [
    ("bench_pairs", ["P", "C", "--workload", "reduce", "--seconds", "1"]),
    ("ab_pass", ["P", "C", "--workload", "reduce"]),
    ("output_digest", ["--workload", "reduce"]),
])
def test_an_empty_seed_range_is_a_usage_error(name, argv, capsys):
    module = load_script(name)
    with pytest.raises(SystemExit) as info:
        module.main(argv + ["--seeds", "5-1"])
    assert info.value.code == 2
    assert "the range '5-1' is empty" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("bench_pairs", ["P", "C", "--seeds", "1", "--seconds", "1"]),
    ("ab_pass", ["P", "C", "--seeds", "1"]),
    ("output_digest", ["--seeds", "1"]),
    ("profile_pass", ["--seed", "1"]),
])
def test_an_unknown_workload_is_a_usage_error(name, argv, capsys):
    with pytest.raises(SystemExit) as info:
        load_script(name).main(argv + ["--workload", "lemmas"])
    assert info.value.code == 2
    assert "invalid choice: 'lemmas'" in capsys.readouterr().err


def test_the_driver_runs_a_failing_command_quietly(capsys):
    passes = load_script("passes")
    assert passes.run(cli_main, ["no-such-command"])[:2] == (2, "")
    assert capsys.readouterr() == ("", "")
    assert len(passes.commands("search", [1])) == 23


def test_output_digest_reads_a_range_as_its_list(capsys):
    digest = load_script("output_digest")
    outputs = []
    for seeds in ("1-2", "1,2"):
        assert digest.main(["--workload", "search", "--seeds", seeds]) == 0
        outputs.append(capsys.readouterr().out.split(":", 1)[1])
    assert outputs[0] == outputs[1]


def test_each_run_is_preceded_by_compiling_its_checkout(script, monkeypatch, capsys):
    events = []
    monkeypatch.setattr(script, "compile_sources", lambda d: events.append(("compile", d)))

    def run_once(checkout, workload, seed, seconds):
        events.append(("run", checkout))
        return {"metrics": {"ops_per_s": {"value": 1.0}}, "failed": 0, "attempted": 1,
                "correct": True}

    monkeypatch.setattr(script, "run_once", run_once)
    assert script.main(["P", "C", "--workload", "reduce", "--seeds", "1-2",
                        "--seconds", "1"]) == 0
    assert events == [("compile", "P"), ("run", "P"), ("compile", "C"), ("run", "C"),
                      ("compile", "C"), ("run", "C"), ("compile", "P"), ("run", "P")]
    assert "reduce, seeds 1-2, 1 s runs, 2 pairs" in capsys.readouterr().out


def test_stale_bytecode_is_rewritten_without_bytecode_writes(script, monkeypatch, tmp_path):
    # A copied checkout: the .pyc records an older source mtime than the
    # copy's, so every import would recompile the module in memory.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    source = tmp_path / "src" / "pkg" / "mod.py"
    source.parent.mkdir(parents=True)
    source.write_text("X = 1\n")
    os.utime(source, (1_000_000, 1_000_000))
    script.compile_sources(str(tmp_path))
    cached = importlib.util.cache_from_source(str(source))

    def recorded_mtime():
        with open(cached, "rb") as fh:
            return struct.unpack("<I", fh.read(12)[8:12])[0]

    assert recorded_mtime() == 1_000_000
    os.utime(source, (2_000_000, 2_000_000))
    script.compile_sources(str(tmp_path))
    assert recorded_mtime() == 2_000_000


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:      1443 |       3346 |       fractions
import time:       835 |       1658 |       gradedlie.leaders
import time:       409 |      11119 |   gradedlie
import time:       675 |      11793 | gradedlie.cli
import time:        12 |         12 | gradedliex
"""


def test_importtime_keeps_the_package_modules(script):
    assert script.parse_importtime(IMPORTTIME) == {
        "gradedlie.leaders": [835, 1658], "gradedlie": [409, 11119],
        "gradedlie.cli": [675, 11793]}
    assert script.parse_importtime("Traceback (most recent call last):\n") == {}


def test_import_medians_are_taken_per_module(script):
    samples = [{"gradedlie": [1, 10], "gradedlie.cli": [5, 50]},
               {"gradedlie": [3, 30], "gradedlie.cli": [6, 60]},
               {"gradedlie": [2, 20]}]
    assert script.median_import_times(samples) == {"gradedlie": [2, 20]}
    assert script.median_import_times([]) == {}


def test_json_keeps_one_entry_per_workload(script, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(script, "compile_sources", lambda d: None)
    imports = {"P": [1000, 9000], "C": [500, 4000]}
    monkeypatch.setattr(script, "import_once",
                        lambda d: {"gradedlie.cli": imports[d]})

    def run_once(checkout, workload, seed, seconds):
        return {"metrics": {"setup_s": {"value": 0.02 if checkout == "P" else 0.01}},
                "failed": 0, "attempted": 3, "correct": True}

    monkeypatch.setattr(script, "run_once", run_once)
    path = tmp_path / "BENCH.json"
    for workload in ("lemma", "reduce"):
        assert script.main(["P", "C", "--workload", workload, "--seeds", "1-2",
                            "--seconds", "1", "--json", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert sorted(doc["workloads"]) == ["lemma", "reduce"]
    entry = doc["workloads"]["reduce"]
    assert (entry["seeds"], entry["seconds"], entry["cpu_count"]) == ([1, 2], 1, os.cpu_count())
    assert entry["python"] == platform.python_version()
    assert entry["attempted"] == {"parent": 6, "change": 6}
    [row] = entry["rows"]
    assert (row["metric"], row["wins"], row["gain"]) == ("setup_s", 2, True)
    assert entry["pairs"][1] == {"seed": 2, "parent": {"setup_s": 0.02},
                                 "change": {"setup_s": 0.01}}
    assert entry["import_us"] == {"runs": script.IMPORT_RUNS,
                                  "parent": {"gradedlie.cli": [1000, 9000]},
                                  "change": {"gradedlie.cli": [500, 4000]}}
