"""Smoke test of scripts/profile_pass.py on one small workload pass, and
a check that pstats can tell every function of the package apart."""

import collections
import contextlib
import glob
import io
import os
import types

import pytest

from helpers import ROOT, script_fixture

script = script_fixture("profile_pass")


def test_profiles_one_search_pass(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main(["--workload", "search", "--seed", "1", "--sort", "cumtime",
                            "--limit", "5"]) == 0
    text = out.getvalue()
    head = text.splitlines()[0]
    assert head.startswith("search seed 1: ") and "commands" in head
    assert "function calls" in text
    assert "Ordered by: cumulative time" in text
    assert "search_leading_dicksonian" in text


def test_refuses_a_nonpositive_limit(script):
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        script.main(["--workload", "search", "--seed", "1", "--limit", "0"])


def code_objects(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def test_every_function_has_its_own_pstats_key():
    # pstats keys a function by (file, first line, name), so two lambdas or
    # two comprehensions of one kind on one line share a row, and the
    # profile reports the calls of whichever it saw last.
    keys = collections.Counter()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "gradedlie", "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        keys.update((c.co_filename, c.co_firstlineno, c.co_name) for c in code_objects(module))
    assert [key for key, n in keys.items() if n > 1] == []
