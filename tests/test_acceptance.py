"""End-to-end acceptance gate.

Each test here is one of the package's release criteria: solver/oracle
agreement, the inequality axiom schemas and shape inclusions, a green
corpus with a closed axiom ledger, endpoint laws for every arrow-typed
declaration, the curated negative suite, kernel-level properties
(subject reduction, equality as a congruence, deterministic reports),
and print/parse round-trips.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from conftest import NEGATIVE_DIR, telescope_context
from generators import random_expr, random_sequent
from oracle import oracle_entails
from sstt.core import (
    App,
    Ext,
    ExtApp,
    Lam,
    Pair,
    Sigma,
    TriContext,
    UnitPoint,
    UnitType,
    Var,
    alpha_eq,
    subst_cube,
)
from sstt.cube import INTERVAL, CONE, CZERO, CFst, CSnd, CVar, ProdCube
from sstt.parser import parse_expr
from sstt.printer import print_expr
from sstt.tope import (
    Sequent,
    Shape,
    TAnd,
    TBot,
    TEq,
    TLe,
    TOr,
    TTop,
    entails,
    shape_included,
    subst_tope_sim,
)
from test_corpus import DESIGNATED_PROVED
from test_negative import check_negative


# -- criterion 1: solver agrees with the brute-force valuation oracle


def test_solver_matches_oracle():
    start = time.monotonic()

    # exhaustive slice: up to three interval variables; atoms are all
    # inequalities/equations between distinct endpoints and variables;
    # hypotheses are TOP, an atom, or a conjunction/disjunction of two
    # atoms; goals are atoms
    names = ["t1", "t2", "t3"]
    ctx = tuple((n, INTERVAL) for n in names)
    points = [CZERO, CONE] + [CVar(n) for n in names]
    atoms = [rel(a, b) for rel in (TLe, TEq)
             for a in points for b in points if a != b]
    pairs = list(itertools.combinations(atoms, 2))
    hyps = ([TTop()] + atoms
            + [TAnd(a, b) for a, b in pairs]
            + [TOr(a, b) for a, b in pairs])
    checked = 0
    for hyp in hyps:
        for goal in atoms:
            seq = Sequent(ctx, hyp, goal)
            assert entails(seq).yes == oracle_entails(seq), str(seq)
            checked += 1
    assert checked == len(hyps) * len(atoms)

    # exhaustive four-atom block over one variable: conjunctive
    # hypotheses against disjunctive goals
    ctx1 = (("t1", INTERVAL),)
    points1 = [CZERO, CONE, CVar("t1")]
    atoms1 = [rel(a, b) for rel in (TLe, TEq)
              for a in points1 for b in points1 if a != b]
    pairs1 = list(itertools.combinations(atoms1, 2))
    for ha, hb in pairs1:
        for ga, gb in pairs1:
            seq = Sequent(ctx1, TAnd(ha, hb), TOr(ga, gb))
            assert entails(seq).yes == oracle_entails(seq), str(seq)
            checked += 1

    # ten thousand random larger sequents over four variables
    rng = random.Random(20260823)
    for _ in range(10_000):
        seq = random_sequent(rng, n_vars=4, depth=3)
        assert entails(seq).yes == oracle_entails(seq), str(seq)
        checked += 1

    elapsed = time.monotonic() - start
    assert checked > 70_000
    assert elapsed < 60.0, f"solver/oracle sweep took {elapsed:.1f}s"


# -- criterion 2: axiom schemas and shape inclusions

T, S, V = CVar("t"), CVar("s"), CVar("u")
CTX1 = (("t", INTERVAL),)
CTX2 = (("t", INTERVAL), ("s", INTERVAL))
CTX3 = (("t", INTERVAL), ("s", INTERVAL), ("u", INTERVAL))

SCHEMAS = [
    (CTX1, TTop(), TLe(T, T)),
    (CTX2, TAnd(TLe(T, S), TLe(S, T)), TEq(T, S)),
    (CTX3, TAnd(TLe(T, S), TLe(S, V)), TLe(T, V)),
    (CTX2, TTop(), TOr(TLe(T, S), TLe(S, T))),
    (CTX1, TTop(), TLe(CZERO, T)),
    (CTX1, TTop(), TLe(T, CONE)),
    ((), TEq(CZERO, CONE), TBot()),
    (CTX2, TEq(T, S), TAnd(TLe(T, S), TLe(S, T))),
]


@pytest.mark.parametrize("ctx,hyp,goal", SCHEMAS)
def test_axiom_schema(ctx, hyp, goal):
    assert entails(Sequent(ctx, hyp, goal)).yes


def _square_shape(tope) -> Shape:
    p = CVar("p")
    tope = subst_tope_sim(tope, {"t1": CFst(p), "t2": CSnd(p)})
    return Shape("S", ("p",), ProdCube(INTERVAL, INTERVAL), tope)


T1, T2 = CVar("t1"), CVar("t2")
TRIANGLE = _square_shape(TLe(T2, T1))
BOUNDARY = _square_shape(TOr(TEq(T2, CZERO), TOr(TEq(T1, T2), TEq(T1, CONE))))
HORN = _square_shape(TOr(TEq(T1, CONE), TEq(T2, CZERO)))


def test_shape_inclusion_chain():
    assert shape_included(HORN, BOUNDARY).yes
    assert shape_included(BOUNDARY, TRIANGLE).yes
    assert shape_included(HORN, TRIANGLE).yes
    assert not shape_included(BOUNDARY, HORN).yes
    assert not shape_included(TRIANGLE, BOUNDARY).yes


# -- criterion 3: the corpus checks, with a closed ledger


def test_corpus_green_closed_ledger_fast(corpus, ledger):
    manifest = corpus.to_json()
    assert manifest["ok"] is True
    assert all(r.ok for r in corpus.files)
    assert set(manifest["axioms"]) == ledger
    assert DESIGNATED_PROVED <= set(manifest["theorems_proved"])
    assert corpus.elapsed < 10.0


# -- criterion 4: endpoint laws for every arrow-typed declaration


def _interval_extension(checker, ctx, ty):
    w = checker.whnf(ctx, ty)
    if isinstance(w, Ext) and w.cube == INTERVAL:
        return w
    return None


def test_boundary_laws_hold_everywhere(checker, corpus_env):
    checked = 0
    for decl in corpus_env.decls.values():
        ctx = telescope_context(checker, decl)
        ext = _interval_extension(checker, ctx, decl.inner_ty)
        if ext is None:
            continue
        f = ctx.fresh("f")
        fctx = ctx.bind_typed(f, ext)
        for endpoint in (CZERO, CONE):
            # only endpoints on the declared boundary have a prescription
            point_tope = subst_tope_sim(ext.boundary_tope, {ext.var: endpoint})
            if not checker.entails_ctx(fctx, point_tope):
                continue
            prescribed = subst_cube(ext.boundary, {ext.var: endpoint})
            at_ty = subst_cube(ext.family, {ext.var: endpoint})
            term = decl.inner_body if decl.inner_body is not None else Var(f)
            lhs = ExtApp(term if decl.inner_body is not None else Var(f),
                         endpoint)
            assert checker.equal(fctx, lhs, prescribed, at_ty), decl.name
            checked += 1
    assert checked >= 30, f"only {checked} endpoint laws exercised"


# -- criterion 5: curated ill-typed files are rejected for the right reason


def test_negative_suite(corpus, ledger):
    cases = sorted(NEGATIVE_DIR.glob("*.sstt"))
    assert len(cases) >= 20
    for path in cases:
        expected = path.with_suffix(".expect").read_text().strip()
        kinds = check_negative(corpus, ledger, path)
        assert kinds and kinds[0] == expected, (
            f"{path.name}: got {kinds}, expected {expected}")


# -- criterion 6: kernel properties


def test_subject_reduction(checker, corpus_env):
    reduced = 0
    for decl in corpus_env.decls.values():
        if decl.inner_body is None:
            continue
        checker.steps = 0  # the budget is per checking unit
        ctx = telescope_context(checker, decl)
        w = checker.whnf(ctx, decl.inner_body)
        # the reduct still checks at the declared type...
        checker.check(ctx, w, decl.inner_ty)
        # ...and is judgmentally equal to the original body
        assert checker.equal(ctx, decl.inner_body, w, decl.inner_ty), decl.name
        reduced += 1
    assert reduced >= 90


def _population(checker, corpus_env):
    """Typed (context, term, type) triples for the equality suite."""
    out = []
    for decl in corpus_env.decls.values():
        if decl.inner_body is None:
            continue
        ctx = telescope_context(checker, decl)
        out.append((ctx, decl.inner_body, decl.inner_ty))
    ctx0 = TriContext()
    rng = random.Random(4)
    term = UnitPoint()
    for _ in range(120):
        name = rng.choice(["x", "y", "z"])
        term = App(Lam(name, Var(name)), term)
        out.append((ctx0, term, UnitType()))
    return out


def test_equality_is_a_per_and_congruence(checker, corpus_env):
    instances = 0
    for ctx, a, ty in _population(checker, corpus_env):
        checker.steps = 0  # the budget is per checking unit
        b = checker.whnf(ctx, a)
        # reflexivity, symmetry, transitivity through the reduct
        assert checker.equal(ctx, a, a, ty)
        assert checker.equal(ctx, a, b, ty)
        assert checker.equal(ctx, b, a, ty)
        assert checker.equal(ctx, b, checker.whnf(ctx, b), ty)
        # congruence: pairing preserves equality
        pair_ty = Sigma(ctx.fresh("w"), ty, ty)
        assert checker.equal(ctx, Pair(a, b), Pair(b, a), pair_ty)
        instances += 5
    assert instances >= 1000


def test_machine_reports_are_deterministic():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "sstt.cli", "--machine", "corpus"],
            capture_output=True, text=True)

    a, b = run(), run()
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout.strip()
    json.loads(a.stdout)


# -- criterion 7: printing then parsing is the identity up to renaming


def test_print_parse_roundtrip_ten_thousand():
    for seed in range(10_000):
        e = random_expr(random.Random(seed), depth=5)
        text = print_expr(e)
        back = parse_expr(text)
        assert alpha_eq(e, back), f"seed {seed}: {text!r}"
