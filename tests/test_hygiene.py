"""Source hygiene: no module imports a name that it never uses,
and no module depends on a package outside the standard library, except
that the tests may use pytest and hypothesis.

Only the standard library's ``ast`` is used, so this needs no linter.  A
name counts as used when it appears anywhere in the module, including in an
annotation written as a string.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src" / "sstt").glob("*.py"))
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))
TEST_LOCAL = {p.stem for p in (ROOT / "tests").glob("*.py")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports at any depth, with their lines.
    A dotted ``import pkg.mod`` is left out: it may be there only to load
    ``pkg.mod``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    out[alias.asname or alias.name] = node.lineno
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


# Imports are read at every depth, in functions and ``if`` blocks too.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_unused_import_is_reported():
    tree = ast.parse("import os\nimport sstt.cli\nfrom typing import Optional, Union\n"
                     "def f(x: 'Optional[int]') -> None:\n    import json\n"
                     "    if x:\n        from re import sub\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "Union", "json", "sub"}


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
# fresh ``sstt`` process spent importing the kernel.  ``cube.Node`` compiles
# each node class's ``__init__`` from its fields instead, which costs about
# 60 µs a class at import.

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


# A node class gets its ``__init__`` from ``cube.Node``; one written by hand
# must do more than set each field and ``_hash``.

def _node_inits(tree: ast.Module):
    """The ``__init__`` of each class whose bases name ``Node``, by class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "Node" for b in cls.bases):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    yield cls.name, fn


def _only_sets_fields(fn: ast.FunctionDef) -> bool:
    """Whether ``fn`` does just what the generated ``__init__`` does: assign
    each parameter to the attribute of its name, and None to ``_hash``, with
    no default but ``span=None``."""
    params = [a.arg for a in fn.args.args[1:]]
    sets = [f"self.{p} = {p}" for p in params] + ["self._hash = None"]
    defaults = [ast.unparse(d) for d in fn.args.defaults]
    return (sorted(map(ast.unparse, fn.body)) == sorted(sets)
            and (defaults == [] or defaults == ["None"] and params[-1] == "span"))


def test_no_node_class_writes_out_the_generated_init():
    copies = [f"{p.name}:{name}" for p in SRC_MODULES
              for name, fn in _node_inits(ast.parse(p.read_text(), str(p)))
              if _only_sets_fields(fn)]
    assert not copies, f"hand-written copies of the generated __init__: {', '.join(copies)}"


def test_init_that_only_sets_fields_is_reported():
    tree = ast.parse(
        "class A(Node):\n    def __init__(self, x, span=None):\n"
        "        self.x = x\n        self.span = span\n        self._hash = None\n"
        "class B(Node):\n    def __init__(self, x=()):\n"
        "        self.x = x\n        self._hash = None\n"
        "class C(Node):\n    def __init__(self, x):\n"
        "        check(x)\n        self.x = x\n        self._hash = None\n"
        "class D:\n    def __init__(self, x):\n        self.x = x\n")
    assert [name for name, fn in _node_inits(tree) if _only_sets_fields(fn)] == ["A"]


def test_generated_inits_are_named_after_their_class():
    import sstt.cli  # loads every module
    from sstt.cube import Node
    from sstt.core import Var

    written = {name for p in SRC_MODULES
               for name, _ in _node_inits(ast.parse(p.read_text(), str(p)))}
    classes, todo = [], [Node]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    generated = [c for c in classes if c.__module__.startswith("sstt.")
                 and c.__match_args__ and c.__name__ not in written]
    assert len(generated) >= 36
    for cls in generated:
        init = cls.__init__
        assert init.__qualname__ == f"{cls.__name__}.__init__"
        assert init.__code__.co_filename == f"<{cls.__name__}.__init__>"
        assert init.__code__.co_varnames[1:init.__code__.co_argcount] == cls.__match_args__
    x = Var(name="x")
    assert x.span is None and x._hash is None
    with pytest.raises(TypeError):
        Var()


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


# No dead code: every module-level function and class of ``src/sstt`` is
# referenced, by a name or an attribute, somewhere besides its own
# definition, in the package, the tests or the benchmark.  ``bench/tracer.py``
# rebinds some functions by the string of their name, which counts too.

TRACER = ROOT / "bench" / "tracer.py"
USERS = MODULES + sorted((ROOT / "bench").rglob("*.py"))


def _references(node: ast.AST) -> Counter:
    """How often each name is read, as a name or an attribute, in ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Name | ast.Attribute))


def _rebound(tree: ast.Module) -> set[str]:
    """The names a tracer rebinds: the second argument of each ``_rebind``."""
    return {call.args[1].value for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "_rebind" and isinstance(call.args[1], ast.Constant)}


def _unreferenced(definitions: list[tuple[str, ast.Module]], users: list[ast.Module],
                  rebound: set[str]) -> list[str]:
    """``module.name`` of each top-level function or class of ``definitions``
    that no tree of ``users`` references outside that definition."""
    total = sum(map(_references, users), Counter())
    return [f"{module}.{d.name}" for module, tree in definitions for d in tree.body
            if isinstance(d, ast.FunctionDef | ast.ClassDef) and d.name not in rebound
            and total[d.name] == _references(d)[d.name]]


def test_every_function_and_class_is_used():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in USERS}
    definitions = [(p.stem, trees[p]) for p in SRC_MODULES]
    dead = _unreferenced(definitions, list(trees.values()), _rebound(trees[TRACER]))
    assert not dead, f"defined but never used: {', '.join(dead)}"


def test_unused_definition_is_reported():
    defs = ast.parse("def used(): pass\ndef only_recursive(n): return only_recursive(n)\n"
                     "class Dead: pass\ndef rebound(): pass\nclass Alive: pass\n")
    user = ast.parse("used()\nx = mod.Alive\n")
    assert _unreferenced([("m", defs)], [defs, user], {"rebound"}) == [
        "m.only_recursive", "m.Dead"]
