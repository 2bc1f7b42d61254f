"""Every imported name is read: an AST scan of the package modules (but
__init__.py, whose imports are re-exports), scripts/ and tests/.  And
every private name that a package module defines at its top level, every
method of a private class and every private method of any class in it,
is read somewhere in src/, scripts/ or tests/."""

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


def private_definitions(text):
    """(line, name) of each private name that the module's top level binds:
    a def, a class or an assignment target.  Dunder names are exempt."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def method_definitions(text):
    """(line, name) of each method that a class of the module defines, the
    class being private or the method private.  Dunder names are exempt."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef):
            out += [(f.lineno, f.name) for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (node.name.startswith("_") or f.name.startswith("_"))
                    and not f.name.startswith("__")]
    return out


def reads(text):
    """The names that a module reads: a loaded name, an attribute, or a
    name that an import binds."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


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


def test_the_dead_name_scan_finds_what_it_should():
    text = (
        "__all__ = ['f']\n"
        "_TABLE = {}\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "_n: int = 0\n"
        "def _used():\n"
        "    return _TABLE\n"
        "def _unused():\n"
        "    _local = 1\n"
        "    return _local\n"
        "class _Box:\n"
        "    pass\n"
        "def f(m):\n"
        "    return _used(), m._a, _n\n"
    )
    read = reads(text) | reads("from m import _b\n")
    assert [(line, name) for line, name in private_definitions(text) if name not in read] == [
        (7, "_unused"), (10, "_Box")]


def test_the_method_scan_finds_what_it_should():
    text = (
        "class _Table:\n"
        "    def __init__(self):\n"
        "        self.rows = {}\n"
        "    def used(self):\n"
        "        return self._helper()\n"
        "    def cells(self):\n"
        "        return []\n"
        "    def _helper(self):\n"
        "        return 1\n"
        "class Public:\n"
        "    def method(self):\n"
        "        class _Inner:\n"
        "            def deep(self):\n"
        "                pass\n"
        "        return _Inner\n"
        "    def _private(self):\n"
        "        pass\n"
        "_Table().used()\n"
    )
    assert [(line, name) for line, name in method_definitions(text)
            if name not in reads(text)] == [(6, "cells"), (16, "_private"), (13, "deep")]


def test_every_private_name_is_read():
    texts = {}
    for pattern in (("src", "**", "*.py"), ("scripts", "*.py"), ("tests", "*.py")):
        for path in glob.glob(os.path.join(ROOT, *pattern), recursive=True):
            with open(path) as fh:
                texts[os.path.relpath(path, ROOT)] = fh.read()
    read = set().union(*map(reads, texts.values()))
    package = sorted(p for p in texts if p.startswith(os.path.join("src", "gradedlie", "")))
    assert os.path.join("src", "gradedlie", "__init__.py") in package
    assert [(path, line, name) for path in package
            for line, name in private_definitions(texts[path]) if name not in read] == []
    assert [(path, line, name) for path in package
            for line, name in method_definitions(texts[path]) if name not in read] == []
