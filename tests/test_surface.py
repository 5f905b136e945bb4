"""The program modules keep no surface that only the tests reach.

An AST scan of src/fertaper lists every top-level function and class, and
every method and property of a top-level class, private ones included
(dunders aside).  One that nothing under src/ reads outside its own
definition must be a name the benchmark under perfbench/ uses; the dense
and brute-force judges the tests compare the program against live in
tests/oracles.py, which no program module imports.  Only reads count, not
assignments.  A top-level name f is reached by a bare name f, an import of
f, or an attribute read .f (gf2.drop_bits).  A member C.x is reached by an
attribute read .x or an import of x, or by self.x or cls.x inside C; a
bare name x, such as a local or a parameter, does not reach it.  An
attribute read on an imported module from outside the package
(np.product, itertools.product) reaches nothing.  The benchmark's reads
follow the same rules, and a dotted string there (the tracer's
"QubitHamiltonian.canonicalize") reads each of its parts as an attribute;
a plain string such as a dict key reads nothing.  The scan can miss an
unused member that shares its name with some other attribute read.  It
would flag a used one only if a subclass read an inherited member through
self, and no class in the package subclasses another.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fertaper"
BENCH = ROOT / "perfbench"

def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def and class, and of each
    method or property of a top-level class, dunders aside."""
    def scanned(node):
        return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__")))

    for node in tree.body:
        if scanned(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if scanned(item) and isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _external_modules(tree: ast.Module) -> set[str]:
    """Names bound by importing a module from outside the package."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if not alias.name.startswith("fertaper")}


def _root(node: ast.AST) -> ast.AST:
    """The expression an attribute chain a.b.c starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _reads(node: ast.AST, external: set[str], owner=None, enclosing=()) -> set[str]:
    """Reads under node, except inside the definition they name: "x" for a
    bare name x, ".x" for an attribute read or an import of x, and "C.x"
    for a read of self.x or cls.x in class C."""
    if isinstance(node, ast.ClassDef) and not enclosing:
        owner = node.name
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node.name)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if owner and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            if enclosing[1:2] != (node.attr,):  # enclosing[0] is the class
                found.add(f"{owner}.{node.attr}")
        elif not (isinstance(_root(node), ast.Name) and _root(node).id in external):
            found.add(f".{node.attr}")
    elif isinstance(node, ast.alias):
        found.add("." + node.name.split(".")[-1])
    found -= {read for name in enclosing for read in (name, f".{name}")}
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, external, owner, enclosing)
    return found


def _reached(qualified: str, reads: set[str]) -> bool:
    """Whether reads reach a definition: a top-level f by "f" or ".f", a
    member C.x by ".x" or "C.x"."""
    return qualified in reads or "." + qualified.split(".")[-1] in reads


def _unreached_in(trees) -> list[str]:
    reads = set().union(*(_reads(tree, _external_modules(tree)) for tree in trees))
    return [qualified for tree in trees for qualified, _ in _definitions(tree)
            if not _reached(qualified, reads)]


def _benchmark_reads(trees) -> set[str]:
    """_reads of the benchmark's sources, plus ".x" for each part x of a
    dotted string constant (the tracer's targets)."""
    reads = set()
    for tree in trees:
        reads |= _reads(tree, _external_modules(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if len(parts) > 1 and all(part.isidentifier() for part in parts):
                    reads.update(f".{part}" for part in parts)
    return reads


def _benchmark_names() -> set[str]:
    return _benchmark_reads([ast.parse(path.read_text(encoding="utf-8"))
                             for path in sorted(BENCH.glob("*.py"))])


def _unreached() -> list[str]:
    return _unreached_in([ast.parse(path.read_text(encoding="utf-8"))
                          for path in sorted(SRC.glob("*.py"))])


def _assigned(target, value):
    """(target, value) pairs of one assignment, tuples unpacked element by element."""
    if (isinstance(target, (ast.Tuple, ast.List)) and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)):
        for pair in zip(target.elts, value.elts):
            yield from _assigned(*pair)
    else:
        yield target, value


def _stored_functions(node: ast.AST, local=frozenset()) -> list[str]:
    """Attributes under node assigned a lambda or a function defined in the
    function around the assignment, as "line: attribute".  An assignment is
    x.a = v, x.a: T = v, setattr(x, "a", v) or object.__setattr__(x, "a", v)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        local = {inner.name for inner in ast.walk(node) if inner is not node
                 and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))}
    pairs = []
    if isinstance(node, ast.Assign):
        pairs = [pair for target in node.targets for pair in _assigned(target, node.value)]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        pairs = [(node.target, node.value)]
    elif (isinstance(node, ast.Call) and len(node.args) == 3
          and ast.unparse(node.func) in ("setattr", "object.__setattr__")):
        pairs = [(node, node.args[2])]
    found = [f"{node.lineno}: {ast.unparse(target)}" for target, value in pairs
             if isinstance(target, (ast.Attribute, ast.Call))
             and (isinstance(value, ast.Lambda) or isinstance(value, ast.Name) and value.id in local)]
    for child in ast.iter_child_nodes(node):
        found += _stored_functions(child, local)
    return found


def test_no_attribute_stores_a_function():
    # data, not closures: an object keeps values and its methods choose
    # what to do with them
    stored = {path.name: _stored_functions(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in stored.items() if lines} == {}


def test_the_function_scan_sees_stored_functions():
    tree = ast.parse("class Column:\n"
                     "    def __init__(self, texts, keys):\n"
                     "        self._items = lambda v: texts[keys.searchsorted(v)]\n"
                     "        def spell(v):\n"
                     "            return texts[v]\n"
                     "        self._spell = spell\n"
                     "        self._keys, self._join = keys, lambda v: v\n"
                     "        object.__setattr__(self, '_frozen', spell)\n"
                     "        setattr(self, '_set', lambda: 0)\n"
                     "        self._size: int = len(texts)\n"  # not stored: a call's value
                     "        self._texts = texts\n"
                     "        self._len = len\n"  # a global function is not defined here
                     "        items = lambda v: v\n")  # a local name, not an attribute
    assert [line.split(": ", 1)[1] for line in _stored_functions(tree)] == [
        "self._items", "self._spell", "self._join",
        "object.__setattr__(self, '_frozen', spell)", "setattr(self, '_set', lambda: 0)"]


def test_every_unreached_name_is_benchmarked():
    bench = _benchmark_names()
    stray = [q for q in _unreached() if not _reached(q, bench)]
    assert stray == [], f"names no program path reaches: {stray}"


def test_no_program_module_imports_the_tests():
    imported = {(path.name, alias.name if isinstance(node, ast.Import) else node.module)
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert [pair for pair in imported if (pair[1] or "").split(".")[0] == "tests"] == []


def test_every_judge_is_read_by_the_tests():
    # a judge no test reads, directly or through another judge, is dead code
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    tests = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").glob("test_*.py"))]
    judges = {name for name, node in _definitions(oracles) if "." not in name}
    assert judges and set(_unreached_in([oracles, *tests])).isdisjoint(judges)


def test_the_scan_sees_a_stray_name():
    tree = ast.parse("def kept():\n    return helper()\n\n"
                     "def helper():\n    return helper\n\n"
                     "class Box:\n    def spare(self):\n        return self.spare\n\n"
                     "def _idle():\n    return 0\n\n"  # private names are scanned, dunders not
                     "class _Crate:\n    def __init__(self):\n        self._used()\n\n"
                     "    def _used(self):\n        return 0\n\n"
                     "    def _spare(self):\n        return 0\n")
    assert _unreached_in([tree]) == ["kept", "Box", "Box.spare", "_idle", "_Crate",
                                     "_Crate._spare"]


@pytest.mark.parametrize("use, reached", [
    ("Box().spare", True),
    ("Box.spare", True),
    ("thing.spare = 1", False),  # an assignment is no read
    ("del thing.spare", False),
    ("np.spare", False),  # an attribute of an outside module
    ("np.linalg.spare", False),
    ("gf2.spare", True),  # a package module's attribute is read
    ("Box().other.spare", True),
    ("class Crate:\n    def f(self):\n        return self.spare", False),
    ("class Crate:\n    @classmethod\n    def f(cls):\n        return cls.spare", False),
    ("class Crate:\n    def f(self):\n        return self.box.spare", True),
    ("spare = Box()\nprint(spare)", False),  # a bare name, such as a local, is no member read
    ("def f(spare):\n    return spare", False),  # nor is a parameter
    ('print("spare")', False),
])
def test_reads_of_a_member_count_by_their_owner_and_context(use, reached):
    source = ("import numpy as np\nimport numpy.linalg\nfrom fertaper import gf2\n\n"
              "class Box:\n    def spare(self):\n        return self.other()\n\n"
              "    def other(self):\n        return 0\n\n" + use + "\n")
    unreached = _unreached_in([ast.parse(source)])
    assert ("Box.spare" not in unreached) == reached
    assert "Box.other" not in unreached


@pytest.mark.parametrize("bench, qualified, reached", [
    ("def f(enc):\n    return enc.spare", "Box.spare", True),
    ("from fertaper.box import spare", "Box.spare", True),
    ('TARGETS = ("box.Box.spare",)', "Box.spare", True),  # a dotted string names its parts
    ("def f(spare):\n    return spare", "Box.spare", False),  # a local
    ('ROW = {"spare": 1}', "Box.spare", False),  # a plain string is no reference
    ("def f(spare):\n    return spare", "spare", True),  # a bare name reaches a function
])
def test_benchmark_reads_follow_the_same_rules(bench, qualified, reached):
    assert _reached(qualified, _benchmark_reads([ast.parse(bench)])) == reached
