"""Checks that read the repository's source files instead of running them."""

import ast
import re

import pytest

from conftest import FIXTURES

ROOT = FIXTURES.parent
PACKAGE = ROOT / "src" / "maip"


def _names(node):
    """Every name and attribute name under an expression node (``a.B`` gives ``a`` and ``B``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_tangle_error_subclass_is_caught_by_name():
    """A TangleError subclass exists only for a condition some caller catches by name.

    A bad argument raises ValueError instead, so a subclass that no
    ``except`` clause outside errors.py names has no reason to exist.
    """
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    bases = {node.name: {name for base in node.bases for name in _names(base)}
             for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    subclasses = {"TangleError"}
    while grown := {name for name, named in bases.items() if named & subclasses} - subclasses:
        subclasses |= grown
    subclasses.discard("TangleError")
    caught = {name for file, tree in trees.items() if file != "errors.py"
              for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type
              for name in _names(node.type)}
    assert subclasses, "no TangleError subclass found"
    assert sorted(subclasses - caught) == []


def _python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_every_python_file_parses_at_the_python_floor():
    """Every .py file under src/, scripts/, tests/ and perfbench/ parses at the
    requires-python floor of pyproject.toml, so newer syntax fails here and
    not only in CI's oldest leg.

    This checks syntax only: a library name newer than the floor, such as
    ``tomllib`` on 3.10, still passes.
    """
    floor = _python_floor()
    with pytest.raises(SyntaxError):  # except* is 3.11 syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
    paths = [path for top in ("src", "scripts", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
