"""The benchmark's tracer still reaches every layer its workloads require.

``bench/tracer.py`` wraps sstt's functions by their names, and ``bench/run.py``
refuses a traced run in which a required layer recorded no call.  These tests
do a small piece of each workload's work under the tracer, so that a renamed
or bypassed function fails here rather than in a benchmark run.  They only
read ``bench/``: the tracer is run from its file, and the required layers
are read off ``run.py``'s ``REQUIRED`` table.
"""

import ast
import copy
import runpy
from pathlib import Path

import pytest

import sstt.corpus
import sstt.parser
import sstt.tope

BENCH = Path(__file__).resolve().parents[1] / "bench"
DATA = BENCH / "data"
Tracer = runpy.run_path(str(BENCH / "tracer.py"))["Tracer"]


def _required() -> dict[str, list[str]]:
    tree = ast.parse((BENCH / "run.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["REQUIRED"])
    return ast.literal_eval(table)


REQUIRED = _required()
SEQUENT = "t1 : 2, t2 : 2 | t2 <= t1 /\\ (t1 === 1 \\/ t2 === 0) |- t2 <= t1"


def _calls(work) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return tracer.summary()["calls"]


def _tope_shapes():
    # the functions are looked up in their modules, where the tracer rebinds them
    sstt.tope.entails(sstt.parser.parse_sequent_source(SEQUENT))


def _corpus():
    sstt.corpus.load_corpus(DATA / "corpus")


def _rejects():
    base = sstt.corpus.load_corpus(DATA / "corpus")
    assert base.ok
    paths = sorted((DATA / "negative").glob("*.sstt"))
    assert len(paths) == 24
    for path in paths:
        env = copy.copy(base.env)
        env.decls, env.shapes = dict(env.decls), dict(env.shapes)
        reports, _ = sstt.corpus.check_files([path], env=env, ledger=base.ledger)
        assert any(r.diagnostics for r in reports), path.name


@pytest.mark.parametrize("workload,work", [
    ("tope-shapes", _tope_shapes), ("corpus", _corpus), ("rejects", _rejects),
])
def test_traced_work_reaches_every_required_layer(workload, work):
    calls = _calls(work)
    missing = [name for name in REQUIRED[workload] if not calls.get(name)]
    assert not missing, f"{workload}: no calls recorded of {missing}"

