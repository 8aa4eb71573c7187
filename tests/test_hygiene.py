"""Source hygiene: no module imports a name at top level that it never uses,
and no module depends on a package outside the standard library, except
that the tests may use pytest and hypothesis.

Only the standard library's ``ast`` is used, so this needs no linter.  A
name counts as used when it appears anywhere in the module, including in an
annotation written as a string.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src" / "sstt").glob("*.py"))
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))
TEST_LOCAL = {p.stem for p in (ROOT / "tests").glob("*.py")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom typing import Optional, Union\n"
                     "def f(x: 'Optional[int]') -> None:\n    pass\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "Union"}


def _packages(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import, wherever it is."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_only_the_standard_library(path):
    allowed = set(sys.stdlib_module_names) | {"sstt"}
    if path.parent.name == "tests":
        allowed |= {"pytest", "hypothesis"} | TEST_LOCAL
    foreign = sorted(_packages(ast.parse(path.read_text(), str(path))) - allowed)
    assert not foreign, f"{path.name} imports {', '.join(foreign)}"


def test_foreign_import_is_reported():
    tree = ast.parse("import os.path\nfrom . import core\n"
                     "def f():\n    import numpy as np\n    from yaml import load\n")
    assert _packages(tree) - set(sys.stdlib_module_names) == {"numpy", "yaml"}


# Syntax nodes are plain slotted classes: creating dataclasses, and importing
# ``dataclasses`` and the ``inspect`` it loads, made up most of the time a
# fresh ``sstt`` process spent importing the kernel.

def test_no_module_imports_dataclasses():
    users = [p.name for p in SRC_MODULES
             if "dataclasses" in _packages(ast.parse(p.read_text(), str(p)))]
    assert not users, f"{', '.join(users)} import dataclasses"


def test_import_loads_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sstt.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The kernel keeps no state between runs: a generated name is chosen against
# the names in scope, and decided sequents are cached on the ``Checker``, so
# a check gives the same answer and message whatever ran before it.

def test_no_module_has_a_global_statement():
    users = [f"{p.name}:{node.lineno}" for p in SRC_MODULES
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Global)]
    assert not users, f"global statements at {', '.join(users)}"


def test_checking_leaves_module_globals_unchanged():
    import sstt.cli  # loads every module
    from sstt.corpus import load_corpus
    from sstt.parser import parse_sequent_source
    from sstt.tope import entails

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "sstt"]

    def state():
        return {(m.__name__, key): (id(value), len(value)
                                    if isinstance(value, dict | list | set) else None)
                for m in modules for key, value in vars(m).items()
                if not key.startswith("__")}

    before = state()
    assert load_corpus().ok
    entails(parse_sequent_source("t : 2, s : 2 | t <= s /\\ s <= t |- t === s"))
    assert state() == before


# Every entailment the checker asks goes through ``Checker.entails_ctx``,
# which caches it and turns a solver fault into a diagnostic.

def test_checker_reaches_the_solver_only_through_its_cache():
    path = ROOT / "src" / "sstt" / "checker.py"
    uses = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef | ast.FunctionDef):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Name) and child.id == "entails":
                uses.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "checker")
    assert [use.split(":")[0] for use in uses] == ["checker.Checker.entails_ctx"], uses
