"""Static guards on the library source: no asserts, no floats, stdlib-only imports.

The lattice module (root_datum.py) also imports no fractions: it works in integers.

Contracts must be raised exceptions so they hold under ``python -O``, every
value is exact, and the runtime needs nothing beyond the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "satake").glob("*.py"))
# lattice code, whose coroot coordinates and determinants are ints: no Fraction may enter
INTEGER_ONLY = {"root_datum.py"}


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Assert):
            yield "%s assert statement" % where
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield "%s float literal %r" % (where, node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield "%s float() call" % where
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top != "satake" and top not in sys.stdlib_module_names:
                    yield "%s import of %s" % (where, alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            if top != "satake" and top not in sys.stdlib_module_names:
                yield "%s import from %s" % (where, node.module)
        if path.name in INTEGER_ONLY and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            if any(name.split(".")[0] == "fractions" for name in names):
                yield "%s import of fractions in an integer-only module" % where


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "root_datum.py", "rep_ring.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_asserts_floats_or_foreign_imports(path):
    assert list(_violations(path)) == []


def test_the_guards_fire(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy\nfrom scipy import linalg\nimport os\nfrom . import laurent\n"
        "assert True\nx = 0.5\ny = float(1)\n"
    )
    found = sorted(line.split(" ", 1)[1] for line in _violations(sample))
    assert found == [
        "assert statement", "float literal 0.5", "float() call", "import from scipy", "import of numpy"
    ]
    # fractions is stdlib, so only an integer-only module is refused it
    lattice = tmp_path / "root_datum.py"
    lattice.write_text("from fractions import Fraction\nimport os, fractions\n")
    assert [line.split(" ", 1)[1] for line in _violations(lattice)] == [
        "import of fractions in an integer-only module"
    ] * 2
    sample.write_text(lattice.read_text())
    assert list(_violations(sample)) == []
