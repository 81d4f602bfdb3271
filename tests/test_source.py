"""Checks that read the repository's source files instead of running them."""

import ast
import re
from collections import Counter

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


def _mentions(node):
    """Every name, attribute name, imported name and string constant under a node."""
    yield from _names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


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


# Public definitions that nothing outside the tests names yet, each with its reason.
UNUSED_ON_PURPOSE = {
    "moves.apply_site": "the public single-move applier, which the exhaustive "
                        "small-scope suite of the ROADMAP is to call",
}


def test_every_public_definition_is_named_outside_the_tests():
    """Every public top-level function and class in src/maip is named in
    src/, scripts/ or perfbench/ somewhere besides its own definition, so
    src/ holds no helper that only the tests use.

    A name in a string counts, as perfbench wraps functions by name; and a
    mention counts for every definition of that name, so the check is loose.
    """
    mentioned, public = Counter(), {}
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            mentioned.update(_mentions(tree))
            if path.parent == PACKAGE:
                for node in tree.body:
                    if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            and not node.name.startswith("_")):
                        own = sum(name == node.name for name in _mentions(node))
                        public[f"{path.stem}.{node.name}"] = (node.name, own)
    assert len(public) > 50
    unused = {key for key, (name, own) in public.items() if mentioned[name] == own}
    assert sorted(unused) == sorted(UNUSED_ON_PURPOSE)
