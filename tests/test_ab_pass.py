"""scripts/ab_pass.py: a checkout compared with itself agrees, and a copy
whose CLI prints something else is reported as a difference."""

import contextlib
import io
import os
import shutil

import pytest

from helpers import ROOT, script_fixture

script = script_fixture("ab_pass")


def run(script, parent, change):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = script.main([parent, change, "--workload", "search", "--seeds", "1", "--reps", "2"])
    return rc, out.getvalue()


def test_a_checkout_agrees_with_itself(script):
    rc, text = run(script, ROOT, ROOT)
    assert rc == 0
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["rep 1", "rep 2"]
    assert lines[2].startswith("search, seeds 1, 23 commands per rep: median change/parent ")
    assert lines[2].endswith(" of 2 reps")


def test_an_altered_output_is_a_difference(script, tmp_path):
    altered = tmp_path / "src" / "gradedlie"
    shutil.copytree(os.path.join(ROOT, "src", "gradedlie"), altered,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(altered / "cli.py", "a") as fh:
        fh.write("\n\n_main = main\n\n\ndef main(argv=None):\n"
                 "    rc = _main(argv)\n    print('altered')\n    return rc\n")
    rc, text = run(script, ROOT, str(tmp_path))
    assert rc == 1
    assert text.startswith("outputs differ on: ")
    assert "altered" in text
    # The comparison holds both ways, and a later call imports afresh.
    assert run(script, str(tmp_path), ROOT)[0] == 1
    assert run(script, ROOT, ROOT)[0] == 0


def test_refuses_a_nonpositive_rep_count(script):
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        script.main([ROOT, ROOT, "--workload", "search", "--seeds", "1", "--reps", "0"])
