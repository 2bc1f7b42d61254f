"""A traced pass of each benchmark workload reports every per-layer metric.

perfbench/run.py prints its result as the last line of stdout.  A traced
run leaves a per-layer metric out of it when a function the metric is
built on is missing from the package (perfbench/spans.py BOUNDARIES), and
leaves out the two ratios when a pass makes no leaders.l_member or no
leaders.is_member call.  Such a run still exits 0, so each workload of
BENCHMARK.json runs one traced pass here and its result is checked for
every per-layer metric that BENCHMARK.json declares.

The run works in a temporary copy of perfbench/ beside a link to this
checkout's src/, so it writes nothing under perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_pass_reports_every_per_layer_metric(workload, tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    argv = [sys.executable] + BENCHMARK["command"][1:] + [
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, "no result line; stderr: %s" % proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == [], proc.stderr[-2000:]
