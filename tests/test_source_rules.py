"""Rules on the package source that no behavioural test can see.

``python -O`` strips ``assert`` statements, so invariants raise
``InternalError`` instead; only the command-line layer writes to the
terminal; ``families`` owns every family decision, so no other module
names a family; only the exact kernel reads the n x n distance matrix,
so no other path allocates one; the closed forms are integer arithmetic, so the package
does not load ``fractions``; the modules import each other only at
module level and without a cycle; every module-level function has a
caller inside the package, or is an entry point that the benchmark file
named for it still calls; and every option a verb accepts is read by that
verb's handler.
"""

import argparse
import ast
import graphlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import hamcolor
from hamcolor.cli import build_parser


def test_no_assert_and_print_only_in_cli():
    sources = sorted(Path(hamcolor.__file__).resolve().parent.glob("*.py"))
    assert {"cli.py", "families.py", "ordering.py", "solver.py"} <= {p.name for p in sources}
    asserts, prints = [], []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                if path.name != "cli.py":
                    prints.append(f"{path.name}:{node.lineno}")
    assert asserts == []
    assert prints == []


FAMILY_NAMES = {"star", "broom", "broom_even", "broom_odd", "a_tree", "a-tree", "caterpillar"}


def test_only_families_names_a_family():
    sources = sorted(Path(hamcolor.__file__).resolve().parent.glob("*.py"))
    found = []
    for path in sources:
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in FAMILY_NAMES:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_only_the_kernel_reads_the_distance_matrix():
    # tree.py defines Tree.distance_matrix; test_cli's test_no_distance_matrix
    # checks color and verify at run time
    sources = sorted(Path(hamcolor.__file__).resolve().parent.glob("*.py"))
    readers = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            # a method is read as an attribute, or by name through getattr
            if (isinstance(node, ast.Attribute) and node.attr == "distance_matrix"
                    or isinstance(node, ast.Constant) and node.value == "distance_matrix"):
                readers.append(f"{path.name}:{node.lineno}")
    assert [r.split(":")[0] for r in readers] == ["_bnb_py.py"], readers


def test_cli_does_not_load_fractions():
    src = str(Path(hamcolor.__file__).resolve().parent.parent)
    probe = "import sys, hamcolor.cli; print('fractions' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def _package_imports(tree: ast.Module):
    """(node, module) for each import of a package module; a bare
    ``hamcolor`` is its ``__init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ("hamcolor." + (node.module or "")).rstrip(".") if node.level else node.module or ""
            names = [f"{base}.{a.name}" for a in node.names] if base == "hamcolor" else [base]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".") + ["__init__"]
            if parts[0] == "hamcolor":
                yield node, parts[1]


def test_package_imports_are_module_level_and_acyclic():
    # an import inside a function hides a cycle between two modules
    sources = sorted(Path(hamcolor.__file__).resolve().parent.glob("*.py"))
    modules = {p.stem for p in sources}
    graph, nested = {}, []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = set(map(id, tree.body))
        graph[path.stem] = set()
        for node, target in _package_imports(tree):
            assert target in modules, f"{path.name}:{node.lineno} imports {target!r}"
            graph[path.stem].add(target)
            if id(node) not in top:
                nested.append(f"{path.name}:{node.lineno} imports {target}")
    assert nested == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


# public functions no package module calls, each kept for the benchmark
# file named here, which must name it too: an exemption goes with its caller
ENTRY_POINTS = {
    "family_ordering": "perfbench/workloads.py",  # :151 builds verify-mixed's orderings with it
    "coloring_from_ordering": "perfbench/workloads.py",  # :152 colors those orderings with it
    "search_backend": "perfbench/client.py",  # :310 records the kernel's name in every result
}


def test_every_function_has_a_caller():
    # a name read in any module but __init__, which only re-exports
    sources = sorted(Path(hamcolor.__file__).resolve().parent.glob("*.py"))
    defined, used = {}, set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = f"{path.name}:{node.lineno}"
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert ENTRY_POINTS.keys() <= defined.keys()
    orphans = [f"{where}: {name}" for name, where in defined.items()
               if name not in used and name not in ENTRY_POINTS]
    assert orphans == []
    root = Path(__file__).resolve().parent.parent
    uncalled = [f"{path}: {name}" for name, path in ENTRY_POINTS.items()
                if not re.search(rf"\b{name}\b", (root / path).read_text(encoding="utf-8"))]
    assert uncalled == []


def test_every_option_is_read_by_its_verb():
    # an option counts as read when the handler's source names args.<dest>;
    # --json also when the handler passes args to _emit, which reads it
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for verb, sub in verbs.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            read = re.search(rf"\bargs\.{action.dest}\b", source) is not None
            if action.dest == "json":
                read = read or re.search(r"_emit\(\s*args\b", source) is not None
            if not read:
                unread.append(f"{verb} {action.option_strings or action.dest}")
    assert len(verbs.choices) == 6
    assert unread == []
