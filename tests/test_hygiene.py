"""Static guards on the library source: no asserts, no floats, stdlib-only imports, no dead names.

The lattice module (root_datum.py) also imports no fractions: it works in integers, and it
holds the one size bound, LIMIT: no other 10⁶ literal may appear in the library, and no
TooLarge is built outside its one guard, require_within.  Integers
are checked where input enters, by root_datum's doors and the CLI's parsers: an int() call
anywhere else would truncate or re-check what those doors already refused.  No cache outlives a
call but those PROCESS_WIDE lists, each with the reason sharing it is safe.

Contracts must be raised exceptions so they hold under ``python -O``, every
value is exact, and the runtime needs nothing beyond the standard library.
Every public def and class is used by the library, the CLI or the benchmark,
or is one of the listed reference routes, which the library never calls, and
every private one is named by the library itself; any other helper that only
tests need belongs in the test that needs it.  A def spelled as a field or attribute that
the library stores counts as used only where that spelling is called, since a read of it
may be the field's.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "satake").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
# the tracer names its targets as strings; no other file's strings count as uses
TRACER = ROOT / "bench" / "spans.py"
# public names nothing in the library calls, kept as the reference routes tests compare against
REFERENCE_ROUTES = (
    ("gamma_power", "γ^ν one weight at a time, the plain sum character_eval is checked against"),
    ("eval_gamma", "the Satake homomorphism A_λ ↦ Tr(γ, V^λ), whose multiplicativity checks mul"),
    ("star_involution", "A_λ ↦ A_{−w₀λ}, an algebra map only if mul and apply_w0 agree"),
    ("dot_orbit", "the checked door to the tree walk of W, compared with a BFS over the group"),
)
# lattice code, whose coroot coordinates and determinants are ints: no Fraction may enter
INTEGER_ONLY = {"root_datum.py"}
# the module whose LIMIT assignment is the one 10⁶ literal of the library, and its one size guard
SIZE_BOUND_HOME = "root_datum.py"
SIZE_GUARD = "require_within"
# the modules where input enters, the only ones that may call int()
INTEGER_DOORS = {"root_datum.py", "cli.py"}
# every cache that outlives a call, by module and name, and why sharing it is safe; a memo of a
# ring, an algebra or a module kept in process state would make a later call look faster only
# by skipping the work that a fresh process does
PROCESS_WIDE = (
    ("cli.py", "_parser", "parse_args leaves the parser as it was, and every default is immutable"),
    ("cli.py", "_preset_datum", "a RootDatum is frozen, and its cached properties are constants "
     "of the datum that no call changes; rings, algebras and modules stay per call"),
)
CACHES = {"cache", "lru_cache"}
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
              "WeakKeyDictionary", "WeakValueDictionary"}
MUTATORS = {"setdefault", "update", "append", "add", "extend", "insert", "pop", "popitem",
            "remove", "discard", "clear"}


def _is_million(node) -> bool:
    """A literal 10⁶: 1000000 in any spelling, or 10 ** 6."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return all(isinstance(n, ast.Constant) for n in (node.left, node.right)) and (
            node.left.value, node.right.value) == (10, 6)
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 10 ** 6


def _spelling(node):
    """The name a Name or an Attribute is spelled by: f for f and for x.f."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_container(node) -> bool:
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) or (
        isinstance(node, ast.Call) and _spelling(node.func) in CONTAINERS)


def _process_wide(tree):
    """(line, name) of each cache in tree that outlives a call.

    That is a def under functools.cache or lru_cache, a call of either, a mutable default, a name
    a global statement rebinds, and a container held by the module or a class that the module
    writes into.
    """
    decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                decorators.update(id(n) for n in ast.walk(decorator))
                if _spelling(getattr(decorator, "func", decorator)) in CACHES:
                    yield node.lineno, node.name
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                if _is_container(default):
                    yield default.lineno, "mutable default of %s" % node.name
    held, written = {}, set()
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        for item in scope.body:
            if isinstance(item, (ast.Assign, ast.AnnAssign)) and item.value and _is_container(item.value):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                held.update((t.id, item.lineno) for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators and _spelling(node.func) in CACHES:
            yield node.lineno, _spelling(node.func)
        elif isinstance(node, ast.Global):
            yield from ((node.lineno, name) for name in node.names)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            written.add(_spelling(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            written.add(_spelling(node.func.value))
    yield from ((line, name) for name, line in held.items() if name in written)


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    listed = {name for module, name, _ in PROCESS_WIDE if module == path.name}
    for line, name in _process_wide(tree):
        if name not in listed:
            yield "%s:%d process-wide cache %s" % (path.name, line, name)
    limit = [node.value for node in ast.walk(tree)
             if path.name == SIZE_BOUND_HOME and isinstance(node, ast.Assign)
             and [getattr(target, "id", None) for target in node.targets] == ["LIMIT"]]
    guard = {id(node) for d in ast.walk(tree)
             if path.name == SIZE_BOUND_HOME and isinstance(d, ast.FunctionDef) and d.name == SIZE_GUARD
             for node in ast.walk(d)}
    for node in ast.walk(tree):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if _is_million(node) and node not in limit:
            yield "%s 10**6 literal outside root_datum.LIMIT" % where
        if (isinstance(node, ast.Call) and "TooLarge" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None))
                and id(node) not in guard):
            yield "%s TooLarge built outside root_datum.require_within" % where
        if isinstance(node, ast.Assert):
            yield "%s assert statement" % where
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield "%s float literal %r" % (where, node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield "%s float() call" % where
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
              and path.name not in INTEGER_DOORS):
            yield "%s int() call outside the integer doors" % where
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


def _fields(paths):
    """The names paths keep as fields: class-body annotations and assignments, and attribute stores."""
    fields = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields.add(item.target.id)
                    elif isinstance(item, ast.Assign):
                        fields.update(t.id for t in item.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                fields.add(node.attr)
    return fields


def _used_names(paths, tracer, fields=frozenset()):
    """Every name a Name or Attribute node of paths reads, and the strings of tracer.

    An attribute spelled as one of fields counts only where it is called: x.name() is a method's
    use, and a bare x.name may read the field.
    """
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and (node.attr not in fields or id(node) in called):
                used.add(node.attr)
            elif path == tracer and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def _dead_names(paths, used, private=False):
    """The public defs and classes (private: the _private ones) that used does not name.

    Dunder methods are called by the interpreter and are never private helpers.
    """
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private and node.name not in used
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield "%s:%d %s" % (path.name, node.lineno, node.name)


def _uses_outside_def(paths, name):
    """Each Name or Attribute node of paths that names name, outside a def of that name."""
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for d in ast.walk(tree)
                  if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and d.name == name
                  for node in ast.walk(d)}
        for node in ast.walk(tree):
            if id(node) not in inside and name in (getattr(node, "id", None), getattr(node, "attr", None)):
                yield "%s:%d %s" % (path.name, node.lineno, name)


def test_every_public_name_is_used_outside_the_tests():
    used = _used_names(SOURCES + BENCH, TRACER, _fields(SOURCES + BENCH)) | {
        name for name, _ in REFERENCE_ROUTES}
    assert list(_dead_names(SOURCES, used)) == []


def test_no_reference_route_is_used_by_the_library():
    # a listed route the library calls would hide from the dead-name test once the call goes
    assert [use for name, _ in REFERENCE_ROUTES for use in _uses_outside_def(SOURCES, name)] == []


def test_every_private_name_is_used_by_the_library():
    # a refactor that moves work into a private core leaves no orphaned helper behind
    assert list(_dead_names(SOURCES, _used_names(SOURCES, None, _fields(SOURCES)), private=True)) == []


def test_every_listed_process_wide_cache_is_in_the_library():
    # the list names each cache that outlives a call, and nothing the library no longer holds
    found = {(path.name, name) for path in SOURCES
             for _, name in _process_wide(ast.parse(path.read_text(), filename=str(path)))}
    assert found == {(module, name) for module, name, _ in PROCESS_WIDE}


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
    # 10⁶ may be spelled only as root_datum.LIMIT
    sample.write_text("a = 10 ** 6\nb = 1_000_000\nLIMIT = 1000000\nc = 10 ** 5\n")
    assert [line.split(" ", 1)[1] for line in _violations(sample)] == [
        "10**6 literal outside root_datum.LIMIT"] * 3
    lattice.write_text("LIMIT = 1_000_000\nOTHER = 1_000_000\n")
    assert [line.split(" ", 1)[0] for line in _violations(lattice)] == ["root_datum.py:2"]
    # a TooLarge is built only inside root_datum.require_within
    guarded = ("def require_within(count):\n    raise TooLarge('over')\n\n"
               "def other(count):\n    raise errors.TooLarge('over')\n")
    lattice.write_text(guarded)
    assert list(_violations(lattice)) == ["root_datum.py:5 TooLarge built outside root_datum.require_within"]
    sample.write_text(guarded)
    assert [line.split(" ", 1)[0] for line in _violations(sample)] == ["sample.py:2", "sample.py:5"]
    # a cache that outlives a call is refused unless PROCESS_WIDE lists its module and name; a
    # per-instance memo and a module-level table nothing writes into are not such caches
    planted = ("import functools\nfrom functools import lru_cache\n_MEMO = {}\nTABLE = {'a': 1}\n"
               "SEEN: set = set()\n\n@functools.cache\ndef _parser():\n    _MEMO[1] = TABLE['a']\n\n"
               "@lru_cache(maxsize=None)\ndef g(x):\n    SEEN.add(x)\n\nh = functools.cache(len)\n\n"
               "def k(x, memo={}):\n    global COUNT\n\nclass Ring:\n    shared = dict()\n\n"
               "    def __init__(self):\n        self.own = {}\n        self.own[0] = self.shared.get(0)\n\n"
               "    def fill(self, k):\n        self.shared[k] = k\n")
    sample.write_text(planted)
    found = ["3 _MEMO", "5 SEEN", "8 _parser", "12 g", "15 cache", "17 mutable default of k", "18 COUNT",
             "21 shared"]
    assert sorted(_violations(sample)) == sorted("sample.py:%s" % f.replace(" ", " process-wide cache ", 1)
                                                 for f in found)
    listed = tmp_path / "cli.py"
    listed.write_text(planted)
    assert sorted(_violations(listed)) == sorted("cli.py:%s" % f.replace(" ", " process-wide cache ", 1)
                                                 for f in found if f != "8 _parser")
    # a per-call memo: one dict made in each call, and one on each instance
    sample.write_text("def f(x):\n    memo = {}\n    memo[x] = x\n    return memo\n\n"
                      "class Ring:\n    def __init__(self):\n        self.memo = {}\n\n"
                      "    def g(self, x):\n        self.memo.setdefault(x, x)\n")
    assert list(_violations(sample)) == []
    # a public def nothing names is dead, and one a tracer string names is not; a private def
    # is dead unless the library itself names it, and a dunder is never dead
    dead = tmp_path / "dead.py"
    dead.write_text("def used():\n    pass\n\ndef unused():\n    used()\n\ndef _private():\n    pass\n"
                    "\ndef _named():\n    pass\n\nclass K:\n    def __init__(self):\n        _named()\n")
    tracer = tmp_path / "tracer.py"
    tracer.write_text('TARGETS = ("unused", "K")\n')
    assert list(_dead_names([dead], _used_names([dead, tracer], None))) == [
        "dead.py:4 unused", "dead.py:13 K"]
    assert list(_dead_names([dead], _used_names([dead, tracer], tracer))) == []
    assert list(_dead_names([dead], _used_names([dead], None), private=True)) == [
        "dead.py:7 _private"]
    # a method whose only use is a read of a same-named field is dead; a call of it is a use
    for field in ("    v_power: int\n", "    def __init__(self):\n        self.v_power = 0\n"):
        shared = tmp_path / "shared.py"
        shared.write_text("class Poly:\n    def v_power(self):\n        pass\n\nclass Monomial:\n" + field
                          + "\ndef read(m):\n    return m.v_power\n\nread(Monomial() or Poly())\n")
        assert list(_dead_names([shared], _used_names([shared], None, _fields([shared])))) == [
            "shared.py:2 v_power"]
        assert list(_dead_names([shared], _used_names([shared], None))) == []
        shared.write_text(shared.read_text().replace("m.v_power", "m.v_power()"))
        assert list(_dead_names([shared], _used_names([shared], None, _fields([shared])))) == []
    # a reference route may name itself inside its own def, and nowhere else
    routes = tmp_path / "routes.py"
    routes.write_text("def ref(x):\n    return ref(x)\n\ndef caller(x):\n    return x.ref() + ref\n")
    assert list(_uses_outside_def([routes], "ref")) == ["routes.py:5 ref", "routes.py:5 ref"]
    assert list(_uses_outside_def([routes], "caller")) == []


def test_the_int_guard_fires_outside_the_doors(tmp_path):
    for name, found in [("hecke.py", ["hecke.py:1 int() call outside the integer doors"]),
                        ("root_datum.py", []), ("cli.py", [])]:
        (tmp_path / name).write_text("z = int('1')\n")
        assert list(_violations(tmp_path / name)) == found
