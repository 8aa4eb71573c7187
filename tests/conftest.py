from __future__ import annotations

import os
from pathlib import Path

import pytest

import sstt
from sstt.checker import Checker
from sstt.core import CubeParam, TopeParam, TriContext, TypedParam
from sstt.corpus import CORPUS_DIR, LEDGER_NAME, load_corpus, read_ledger

NEGATIVE_DIR = Path(__file__).parent / "negative"

# subprocesses (``python -m sstt.cli``) run the sstt these tests import,
# also from a checkout where it is not installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(sstt.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_env(corpus):
    assert all(r.ok for r in corpus.files), "corpus must be green"
    return corpus.env


@pytest.fixture(scope="session")
def checker(corpus_env):
    return Checker(corpus_env)


@pytest.fixture(scope="session")
def ledger():
    return read_ledger(CORPUS_DIR / LEDGER_NAME)


def telescope_context(checker: Checker, decl) -> TriContext:
    """Rebuild the context a declaration's inner type and body live in."""
    ctx = TriContext()
    for p in decl.telescope:
        match p:
            case CubeParam(name, cube):
                ctx = ctx.bind_cube(name, cube)
            case TopeParam(t):
                ctx = ctx.bind_tope(t)
            case TypedParam(name, ty):
                ctx = ctx.bind_typed(name, ty)
    return ctx
