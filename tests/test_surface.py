"""The program modules keep no surface that only the tests reach.

An AST scan of src/fertaper lists every public function, class, method
and property.  One that nothing under src/ names outside its own
definition must be a dense or brute-force oracle the tests judge the
program by (listed below), or a name the benchmark under perfbench/ uses.
Names are matched bare, so a method counts as used when any attribute of
that name is read; the scan can miss an unused name but never flags a
used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fertaper"
BENCH = ROOT / "perfbench"

# Reference implementations that tests compare the program against.
ORACLES = (
    "pauli_matrix_naive",
    "mode_op_to_pauli",
    "StandardEncoding.permutation_matrix",
    "apply_op_string_rows",
    "transition_sign",
    "FramedDiagonal.apply_to_index",
    "FramedDiagonal.to_dense",
    "SimulatorOp.to_dense",
    "CodeEncoding.isometry",
    "apply_frames_to_isometry",
    "bipartite_improve",
    "occupation_diag",
    "is_n_injective",
    "observable_matrix",
    "number_operator_matrix",
    "sector_matrix",
    "sector_matrix_direct",
    "brute_force_decode",
    "no_edge_addable",
    "required_words",
    "codespace_isometry",
    "partition_eigenvector",
)

# The paper's one-observable simulators, r2 and r4 of a hop and a pair hop.
# The program frames a whole Hamiltonian in one pass; the tests check the
# simulation condition and the sparsity bounds on these, one term at a time.
PER_OBSERVABLE = ("two_body_simulator", "four_body_simulator")


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level def and class, and of
    each public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _names_outside_own_definition(node: ast.AST, enclosing=()) -> set[str]:
    """Names read or imported under node, except inside the definition they name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node.name)
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.alias):
        found.add(node.name.split(".")[-1])
    found -= set(enclosing)
    for child in ast.iter_child_nodes(node):
        found |= _names_outside_own_definition(child, enclosing)
    return found


def _benchmark_names() -> set[str]:
    """Every identifier perfbench/ reads, imports or names in a dotted string
    (the tracer's targets, such as "QubitHamiltonian.canonicalize")."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def _unreached() -> list[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = set().union(*(_names_outside_own_definition(tree) for tree in trees))
    return [qualified for tree in trees for qualified, node in _public_definitions(tree)
            if node.name not in used]


def test_every_unreached_name_is_an_oracle_or_benchmarked():
    bench = _benchmark_names()
    stray = [q for q in _unreached()
             if q not in ORACLES + PER_OBSERVABLE and q.split(".")[-1] not in bench]
    assert stray == [], f"public names no program path reaches: {stray}"


def test_every_listed_oracle_is_defined_and_unreached():
    # an oracle the program starts to call, or deletes, leaves the list
    assert set(ORACLES + PER_OBSERVABLE) <= set(_unreached())


def test_the_scan_sees_a_stray_name():
    tree = ast.parse("def kept():\n    return helper()\n\n"
                     "def helper():\n    return helper\n\n"
                     "class Box:\n    def spare(self):\n        return self.spare\n")
    used = _names_outside_own_definition(tree)
    unreached = [q for q, node in _public_definitions(tree) if node.name not in used]
    assert unreached == ["kept", "Box", "Box.spare"]
