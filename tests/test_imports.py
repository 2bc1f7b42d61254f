"""Every imported name is read: an AST scan of the package modules (but
__init__.py, whose imports are re-exports), scripts/ and tests/."""

import ast
import glob
import os

import pytest

from helpers import ROOT


def sources():
    """The scanned files, relative to the repository root."""
    paths = [os.path.join("src", "gradedlie", os.path.basename(p))
             for p in glob.glob(os.path.join(ROOT, "src", "gradedlie", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    for folder in ("scripts", "tests"):
        paths += [os.path.join(folder, os.path.basename(p))
                  for p in glob.glob(os.path.join(ROOT, folder, "*.py"))]
    return sorted(paths)


def unused_imports(text):
    """(line, name) of each name that an import binds and the module never
    reads.  Imports from __future__ and lines marked # noqa are exempt."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_what_it_should():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from fractions import Fraction as F, gcd\n"
        "from re import (\n"
        "    compile,\n"
        "    escape,  # noqa: F401\n"
        ")\n"
        "import json  # noqa\n"
        "sys = 1\n"
        "print(os.path.sep, F(1))\n"
    )
    assert unused_imports(text) == [(3, "sys"), (4, "gcd"), (6, "compile")]


def test_the_scan_covers_every_part():
    paths = sources()
    assert os.path.join("src", "gradedlie", "leaders.py") in paths
    assert os.path.join("src", "gradedlie", "__init__.py") not in paths
    assert os.path.join("scripts", "passes.py") in paths
    assert os.path.join("tests", "test_imports.py") in paths


@pytest.mark.parametrize("path", sources())
def test_every_import_is_read(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []
