"""Smoke test of scripts/profile_pass.py on one small workload pass."""

import contextlib
import importlib.util
import io
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "profile_pass", os.path.join(ROOT, "scripts", "profile_pass.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
