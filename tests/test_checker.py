import pytest

import sstt.checker
from sstt.checker import CheckError, Checker, Diagnostic
from sstt.core import (
    U,
    Ann,
    App,
    Const,
    CubeLit,
    Ext,
    ExtApp,
    Fst,
    IdT,
    J,
    Lam,
    Pair,
    Pi,
    Refl,
    Sigma,
    Snd,
    Subst,
    TopeCase,
    TriContext,
    UnitPoint,
    UnitType,
    Var,
    alpha_eq,
)
from sstt.corpus import load_corpus
from sstt.cube import INTERVAL, CONE, CZERO, CPair, CVar, ProdCube
from sstt.parser import parse_expr, parse_file
from sstt.scope import GlobalEnv, elaborate_toplevels
from sstt.tope import BOT, TOP, TAnd, TEq, TLe, TOr


def E(env, src):
    return parse_expr(src, env=env)


def test_whnf_beta(checker):
    ctx = TriContext()
    e = App(Lam("x", Var("x")), UnitPoint())
    assert checker.whnf(ctx, e) == UnitPoint()


def test_whnf_beta_avoids_capture():
    # the argument y must not be captured by the inner binder named y
    ctx = TriContext().bind_typed("y", UnitType())
    e = App(Lam("x", Lam("y", Var("x"))), Var("y"))
    assert alpha_eq(Checker(GlobalEnv()).whnf(ctx, e), Lam("z", Var("y")))


def test_whnf_fuel_counts_one_unfolding_and_one_beta_per_argument():
    fresh_checker = _k3_checker()
    ctx = TriContext().bind_typed("u", UnitType())
    e = App(App(App(Const("k3"), UnitPoint()), Var("u")), Var("u"))
    fresh_checker.steps = 0
    assert fresh_checker.whnf(ctx, e) == UnitPoint()
    assert fresh_checker.steps == 4


def test_whnf_delta_unfolds_definitions(checker, corpus_env):
    ctx = TriContext()
    out = checker.whnf(ctx, E(corpus_env, "arr Unit"))
    assert isinstance(out, Ext)


def test_whnf_j_beta(checker, corpus_env):
    ctx = TriContext()
    e = E(corpus_env, "J (\\u. \\v. \\q1. Unit) (\\u. star) (refl star)")
    # elaboration records the endpoint of refl, so J can reduce
    out = checker.whnf(ctx, checker.check(ctx, e, UnitType()))
    assert out == UnitPoint()


def test_whnf_boundary_reduction_on_neutral(checker, corpus_env):
    hom_ty = checker.check(TriContext(), E(corpus_env, "hom Unit star star"), U())
    ctx = TriContext().bind_typed("f", hom_ty)
    assert checker.whnf(ctx, ExtApp(Var("f"), CZERO)) == UnitPoint()
    assert checker.whnf(ctx, ExtApp(Var("f"), CONE)) == UnitPoint()


def test_whnf_boundary_reduction_reads_the_type_off_the_spine(corpus_env, monkeypatch):
    # the type of a stuck application is read off its head's type, without
    # checking its arguments again
    checker = Checker(corpus_env)
    hom_ty = checker.check(TriContext(), E(corpus_env, "hom Unit star star"), U())
    ctx = TriContext().bind_typed("g", Pi("u", UnitType(), hom_ty)).bind_typed("u", UnitType())
    checked = []
    monkeypatch.setattr(Checker, "check", lambda self, *args: checked.append(args))
    assert checker.whnf(ctx, ExtApp(App(Var("g"), Var("u")), CZERO)) == UnitPoint()
    assert checked == []


def test_whnf_boundary_reduction_reads_a_stuck_j_off_its_path(checker, corpus_env):
    hom_ty = checker.check(TriContext(), E(corpus_env, "hom Unit star star"), U())
    ctx = TriContext().bind_typed("p", IdT(U(), UnitType(), UnitType()))
    j = checker.check(ctx, J(Lam("u", Lam("v", Lam("q", hom_ty))),
                             Lam("u", Lam("t", UnitPoint())), Var("p")), hom_ty)
    assert isinstance(j, J)
    assert checker.whnf(ctx, ExtApp(j, CZERO)) == UnitPoint()
    assert checker.whnf(ctx, ExtApp(j, CONE)) == UnitPoint()


def _k3_checker():
    """A checker whose environment holds one definition, ``k3``, that
    returns the first of its three arguments."""
    env = GlobalEnv()
    checker = Checker(env)
    src = "def k3 (a : Unit) (b : Unit) (c : Unit) : Unit := a\n"
    for d in elaborate_toplevels(parse_file(src, "k3.sstt", env), env):
        env.decls[d.name] = checker.check_decl(d)
    return checker


def test_reduction_under_a_pending_substitution_agrees_with_whnf():
    # each case of the machine, started under a substitution, reduces to the
    # closed term's weak head form with the same fuel
    checker = _k3_checker()
    ctx = TriContext().bind_typed("u", UnitType()).bind_cube("s", INTERVAL)
    x, u, star = Var("x"), Var("u"), UnitPoint()
    sub = Subst({"x": u, "c": Lam("a", Lam("b", Lam("q", UnitType())))},
                {"r": CZERO, "p": CPair(CZERO, CONE)})
    on_r = ((TEq(CVar("r"), CONE), UnitType()), (TEq(CVar("r"), CZERO), Pair(x, x)))
    cases = {
        "variable": x,
        "cube variable": Fst(Var("p")),
        "annotation": Ann(x, UnitType()),
        "unfolding": App(App(App(Const("k3"), x), star), star),
        "beta": App(Lam("y", Pair(Var("y"), x)), x),
        "beta under a capturing binder": App(App(Lam("y", Lam("u", x)), star), star),
        "extension beta": ExtApp(Lam("t", Pair(Var("t"), x)), CVar("r")),
        "projection": Snd(Fst(Pair(Pair(star, x), star))),
        "J on refl": J(Var("c"), Lam("w", Pair(Var("w"), x)), Refl(x)),
        "tope case": TopeCase(on_r),
        "Π head": Pi("y", Var("u"), IdT(UnitType(), x, Var("y"))),
    }
    for name, e in cases.items():
        checker.steps = 0
        w, pending = checker._reduce(ctx, e, sub)
        steps = checker.steps
        checker.steps = 0
        assert alpha_eq(pending.close(w), checker.whnf(ctx, sub.close(e))), name
        assert steps == checker.steps, name


def test_whnf_and_equal_see_through_an_annotation():
    # ((\x. x) : A -> A) a is a β-redex once its annotation is dropped; kept,
    # it would leave the term stuck and unequal to a
    ctx = TriContext().bind_typed("A", U()).bind_typed("a", Var("A"))
    e = App(Ann(Lam("x", Var("x")), Pi("x", Var("A"), Var("A"))), Var("a"))
    checker = Checker(GlobalEnv())
    assert checker.whnf(ctx, e) == Var("a")
    assert checker.equal(ctx, e, Var("a"), Var("A"))


def test_whnf_tope_case_picks_entailed_branch(checker):
    ctx = TriContext().bind_cube("t", INTERVAL).bind_tope(TEq(CVar("t"), CZERO))
    e = TopeCase(((TEq(CVar("t"), CZERO), UnitPoint()),))
    assert checker.whnf(ctx, e) == UnitPoint()


def test_equal_eta_pi(checker, corpus_env):
    ty = checker.check(TriContext(), E(corpus_env, "Unit -> Unit"), U())
    ctx = TriContext().bind_typed("f", ty)
    assert checker.equal(ctx, Var("f"), Lam("x", App(Var("f"), Var("x"))), ty)


def test_equal_eta_sigma(checker, corpus_env):
    ty = checker.check(TriContext(), E(corpus_env, "Unit * Unit"), U())
    ctx = TriContext().bind_typed("p", ty)
    from sstt.core import Fst, Pair, Snd

    pair = Pair(Fst(Var("p")), Snd(Var("p")))
    assert checker.equal(ctx, Var("p"), pair, ty)


def test_equal_eta_extension(checker):
    # f and \s. f s are compared pointwise at <Pi (t : 2) -> A [ t === 0 |-> a ]>,
    # although only one of them is a literal function; g is another section
    ty = Ext("t", INTERVAL, TOP, Var("A"), TEq(CVar("t"), CZERO), Var("a"))
    ctx = (TriContext().bind_typed("A", U()).bind_typed("a", Var("A"))
           .bind_typed("f", ty).bind_typed("g", ty))
    lam = checker.check(ctx, Lam("s", ExtApp(Var("f"), CVar("s"))), ty)
    assert checker.equal(ctx, Var("f"), lam, ty)
    assert checker.equal(ctx, lam, Var("f"), ty)
    assert not checker.equal(ctx, Var("g"), lam, ty)


def test_equal_unit_eta(checker):
    ctx = TriContext().bind_typed("x", UnitType()).bind_typed("y", UnitType())
    assert checker.equal(ctx, Var("x"), Var("y"), UnitType())


def test_equal_under_inconsistent_context(checker):
    ctx = (TriContext().bind_cube("t", INTERVAL)
           .bind_tope(TAnd(TEq(CVar("t"), CZERO), TEq(CVar("t"), CONE))))
    assert checker.equal(ctx, U(), UnitType(), U())


def test_equal_points_of_different_cubes_are_unequal(checker):
    square = ProdCube(INTERVAL, INTERVAL)
    ctx = TriContext().bind_cube("p", square)
    assert not checker.equal(ctx, Var("p"), CubeLit(CZERO))
    assert not checker.equal(ctx, CubeLit(CZERO), Var("p"))


def test_equal_splits_on_context_disjunction(checker, corpus_env):
    # under t === 0 \/ t === 1, f t reduces to an endpoint either way
    hom_ty = checker.check(TriContext(), E(corpus_env, "hom Unit star star"), U())
    ctx = (TriContext().bind_cube("t", INTERVAL)
           .bind_tope(TOr(TEq(CVar("t"), CZERO), TEq(CVar("t"), CONE)))
           .bind_typed("f", hom_ty))
    assert checker.equal(ctx, ExtApp(Var("f"), CVar("t")), UnitPoint(), UnitType())


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_equal_settles_alpha_equal_terms_at_once(checker, corpus_env, monkeypatch):
    # alpha-equal terms are convertible in every context, so the solver is
    # not asked about the context's disjunction and neither side is reduced
    hom_ty = checker.check(TriContext(), E(corpus_env, "hom Unit star star"), U())
    ctx = (TriContext().bind_cube("t", INTERVAL)
           .bind_tope(TOr(TEq(CVar("t"), CZERO), TEq(CVar("t"), CONE)))
           .bind_typed("f", hom_ty))
    a = Lam("x", App(Lam("y", ExtApp(Var("f"), CVar("t"))), Var("x")))
    b = Lam("z", App(Lam("w", ExtApp(Var("f"), CVar("t"))), Var("z")))
    calls = []
    _count_calls(monkeypatch, sstt.checker, "entails", calls)
    _count_calls(monkeypatch, Checker, "whnf", calls)
    assert checker.equal(ctx, a, b)
    assert checker.equal(ctx, a, b, Pi("u", UnitType(), UnitType()))
    assert calls == []


def test_check_compares_types_as_written(checker, corpus_env, monkeypatch):
    # a variable checked against its declared type, a definition applied to
    # arguments, is accepted without unfolding that definition
    hom_ty = checker.check(TriContext(), E(corpus_env, "hom Unit star star"), U())
    assert isinstance(hom_ty, App)
    ctx = TriContext().bind_typed("f", hom_ty)
    calls = []
    _count_calls(monkeypatch, Checker, "whnf", calls)
    assert checker.check(ctx, Var("f"), hom_ty) == Var("f")
    assert calls == []


def test_check_lambda_against_unfolded_pi_avoids_capture():
    # Arr A x unfolds to (x : A) -> B with B := x pending: the codomain is
    # the outer x, not the function's own argument
    env = GlobalEnv()
    checker = Checker(env)
    src = "def Arr (A : U) (B : U) : U := (x : A) -> B\n"
    for d in elaborate_toplevels(parse_file(src, "arr.sstt", env), env):
        env.decls[d.name] = checker.check_decl(d)
    ctx = TriContext().bind_typed("A", U()).bind_typed("x", U()).bind_typed("b", Var("x"))
    ty = App(App(Const("Arr"), Var("A")), Var("x"))
    for name in ("y", "x"):
        assert alpha_eq(checker.check(ctx, Lam(name, Var("b")), ty), Lam("z", Var("b")))
        with pytest.raises(CheckError) as err:
            checker.check(ctx, Lam(name, Var(name)), ty)
        assert err.value.diagnostic.kind == "type-mismatch"


def test_checking_a_term_that_needs_no_elaboration_returns_it(checker, corpus_env):
    ty = checker.check(TriContext(), E(corpus_env, "Unit -> Unit"), U())
    ctx = TriContext().bind_typed("f", ty).bind_typed("u", UnitType())
    terms = [
        (Lam("x", App(Var("f"), Var("x"))), ty),
        (Pair(App(Var("f"), Var("u")), UnitPoint()), Sigma("p", UnitType(), UnitType())),
        (Pi("x", UnitType(), IdT(UnitType(), Var("x"), Var("u"))), U()),
        (Ext("t", INTERVAL, TOP, UnitType(), TEq(CVar("t"), CZERO), UnitPoint()), U()),
        (J(Lam("a", Lam("b", Lam("q", UnitType()))), Lam("a", Var("a")), Refl(Var("u"))),
         UnitType()),
    ]
    u = Var("u")
    terms.append((Refl(u), IdT(UnitType(), u, u)))
    for e, t in terms:
        assert checker.check(ctx, e, t) is e
    # a bare refl is elaborated with its endpoint, so it does need elaboration
    refl_ty = IdT(UnitType(), Var("u"), Var("u"))
    assert checker.check(ctx, Refl(None), refl_ty) == Refl(Var("u"))


def test_rechecking_the_checked_corpus_changes_nothing(corpus):
    # the checker's output is its own fixed point, up to ==
    checker = Checker(corpus.env)
    assert len(corpus.decls) == len(corpus.env.decls) > 100
    for decl in corpus.decls:
        again = checker.check_decl(decl)
        assert again.ty == decl.ty and again.body == decl.body, decl.name


def test_equal_is_congruence_for_application(checker, corpus_env):
    ty = checker.check(TriContext(), E(corpus_env, "Unit -> Unit"), U())
    ctx = TriContext().bind_typed("f", ty).bind_typed("x", UnitType())
    a = Var("x")
    b = App(Lam("y", Var("y")), Var("x"))
    assert checker.equal(ctx, a, b, UnitType())
    assert checker.equal(ctx, App(Var("f"), a), App(Var("f"), b), UnitType())


def test_infer_const_type(checker, corpus_env):
    ty = checker.infer(TriContext(), Const("idarr"))[0]
    assert alpha_eq(ty, corpus_env.decls["idarr"].ty)


def test_infer_spine_instantiates_telescope_simultaneously():
    # f's binders are named x and y, its arguments are the context's y and x
    a = Var("A")
    f_ty = Pi("x", a, Pi("y", a, IdT(a, Var("x"), Var("y"))))
    ctx = (TriContext().bind_typed("A", U()).bind_typed("f", f_ty)
           .bind_typed("y", a).bind_typed("x", a))
    ty = Checker(GlobalEnv()).infer(ctx, App(App(Var("f"), Var("y")), Var("x")))[0]
    assert alpha_eq(ty, IdT(a, Var("y"), Var("x")))


def test_check_mismatch_raises(checker):
    with pytest.raises(CheckError) as e:
        checker.check(TriContext(), UnitPoint(), U())
    assert e.value.diagnostic.kind == "type-mismatch"


def test_cannot_infer_bare_lambda(checker):
    with pytest.raises(CheckError):
        checker.infer(TriContext(), Lam("x", Var("x")))


def test_fuel_exhaustion(corpus_env):
    starved = Checker(corpus_env, fuel=2)
    ctx = TriContext()
    e = App(Lam("x", Var("x")), App(Lam("y", Var("y")),
                                    App(Lam("z", Var("z")), UnitPoint())))
    with pytest.raises(CheckError) as err:
        starved.whnf(ctx, e)
    assert err.value.diagnostic.kind == "fuel"


def test_ext_app_outside_shape_rejected(checker, corpus_env):
    # a triangle may not be evaluated at an arbitrary point of the square
    decl = corpus_env.decls["hom2"]
    ctx = TriContext().bind_typed("q", checker.check(
        TriContext(),
        E(corpus_env, "hom2 Unit star star star (\\t. star) (\\t. star) (\\t. star)"),
        U()))
    ctx = ctx.bind_cube("t1", INTERVAL).bind_cube("t2", INTERVAL)
    with pytest.raises(CheckError) as err:
        checker.infer(ctx, ExtApp(Var("q"), CPair(CVar("t1"), CVar("t2"))))
    assert err.value.diagnostic.kind == "tope-unsolved"


def test_no_context_binds_a_name_twice(monkeypatch):
    # a binder whose name the context binds already is renamed first, so a
    # lookup never misses an outer variable that a type still mentions
    rebound = []
    for method in ("bind_typed", "bind_cube"):
        def bind(self, name, sort, original=getattr(TriContext, method)):
            if any(n == name for n, _ in self.cube_vars + self.typed_vars):
                rebound.append(name)
            return original(self, name, sort)

        monkeypatch.setattr(TriContext, method, bind)
    assert load_corpus().ok
    # each site that binds a parsed binder, with a name already in scope
    checker = Checker(GlobalEnv())
    ctx = TriContext().bind_typed("A", U()).bind_typed("x", Var("A")).bind_cube("t", INTERVAL)
    over_2 = Ext("t", INTERVAL, TOP, Var("A"), BOT, TopeCase(()))
    assert alpha_eq(checker.check(ctx, Lam("x", Var("x")), Pi("y", Var("A"), Var("A"))),
                    Lam("z", Var("z")))
    assert alpha_eq(checker.check(ctx, Lam("t", Var("x")), over_2), Lam("s", Var("x")))
    assert checker.infer(ctx, Pi("x", Var("A"), Var("A")))[0] == U()
    assert checker.infer(ctx, over_2)[0] == U()
    assert rebound == []


def test_diagnostic_rejects_unknown_kind():
    assert Diagnostic("tope-unsolved", "m").kind == "tope-unsolved"
    with pytest.raises(ValueError, match="no-such-kind"):
        Diagnostic("no-such-kind", "m")


# -- equality rules that neither corpus reaches

def _cube_ctx(*topes):
    """Cube variables t and s, typed ones A : U and a, b : A, and a path
    variable p of no known type, under the conjunction of ``topes``."""
    ctx = TriContext().bind_cube("t", INTERVAL).bind_cube("s", INTERVAL)
    for tope in topes:
        ctx = ctx.bind_tope(tope)
    return (ctx.bind_typed("A", U()).bind_typed("a", Var("A")).bind_typed("b", Var("A"))
            .bind_typed("p", None))


def test_equal_extension_types_compare_shapes_and_boundaries():
    # boundary branches in either order give the same type; a different
    # shape gives another
    t = CVar("t")
    at0, at1 = TEq(t, CZERO), TEq(t, CONE)

    def ext(shape, *branches):
        phi = TOr(*(tp for tp, _ in branches)) if branches else BOT
        return Ext("t", INTERVAL, shape, Var("A"), phi, TopeCase(branches))

    a0, b1 = (at0, Var("a")), (at1, Var("b"))
    checker, ctx = Checker(GlobalEnv()), _cube_ctx()
    assert not alpha_eq(ext(TOP, a0, b1), ext(TOP, b1, a0))
    assert checker.equal(ctx, ext(TOP, a0, b1), ext(TOP, b1, a0), U())
    assert not checker.equal(ctx, ext(TOP, a0, b1), ext(TOP, b1, (at0, Var("b"))), U())
    assert not checker.equal(ctx, ext(TOP), ext(at0), U())
    assert not checker.equal(ctx, ext(at0), ext(TOP), U())


def test_equal_lambdas_with_no_type_compare_their_bodies():
    x, y, z = Var("x"), Var("y"), Var("z")
    checker, ctx = Checker(GlobalEnv()), _cube_ctx()
    redex = Pair(Lam("x", App(Lam("z", z), x)), Var("a"))
    assert checker.equal(ctx, redex, Pair(Lam("y", y), Var("a")))
    assert not checker.equal(ctx, redex, Pair(Lam("y", Var("b")), Var("a")))


def test_equal_stuck_case_split_compares_each_branch():
    # neither branch of [t <= s |-> a | s <= t |-> ...] is taken with no
    # tope in the context, so each is compared under its own
    t, s = CVar("t"), CVar("s")
    checker, ctx = Checker(GlobalEnv()), _cube_ctx()
    both_a = TopeCase(((TLe(t, s), Var("a")), (TLe(s, t), Var("a"))))
    a_or_b = TopeCase(((TLe(t, s), Var("a")), (TLe(s, t), Var("b"))))
    assert checker.whnf(ctx, both_a) == both_a
    assert checker.equal(ctx, both_a, Var("a"), Var("A"))
    assert checker.equal(ctx, Var("a"), both_a, Var("A"))
    assert not checker.equal(ctx, a_or_b, Var("a"), Var("A"))
    assert not checker.equal(ctx, Var("a"), a_or_b, Var("A"))


def _stuck_j(base, path):
    motive = Lam("u", Lam("v", Lam("q", Var("A"))))
    return J(motive, base, path)


def test_equal_stuck_j_compares_motive_base_and_path():
    # the bases and paths are equal without being alpha-equal; the path is
    # an application, whose argument weak head reduction leaves alone
    checker, ctx = Checker(GlobalEnv()), _cube_ctx()
    ident = Lam("z", Var("z"))
    base, base2 = Lam("u", Var("a")), Lam("w", App(ident, Var("a")))
    path, path2 = App(Var("p"), Var("a")), App(Var("p"), App(ident, Var("a")))
    assert checker.equal(ctx, _stuck_j(base, path), _stuck_j(base2, path2))
    assert not checker.equal(ctx, _stuck_j(base, path), _stuck_j(Lam("u", Var("b")), path))
    assert not checker.equal(ctx, _stuck_j(base, path), _stuck_j(base, App(Var("p"), Var("b"))))


def test_equal_stuck_extension_applications_compare_points_under_the_tope():
    # a stuck J applied at t and at s: the same under t === s only
    t, s = CVar("t"), CVar("s")
    j = _stuck_j(Lam("u", Var("a")), Var("p"))
    checker = Checker(GlobalEnv())
    assert checker.equal(_cube_ctx(TEq(t, s)), ExtApp(j, t), ExtApp(j, s))
    assert not checker.equal(_cube_ctx(), ExtApp(j, t), ExtApp(j, s))
