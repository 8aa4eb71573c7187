import random

from generators import random_expr
from sstt.core import (
    U,
    App,
    CubeLit,
    CubeParam,
    Ext,
    Fst,
    Lam,
    Pair,
    Pi,
    TopeParam,
    TypedParam,
    Var,
    alpha_eq,
    cube_to_term,
    fold_telescope,
    free_vars,
    fresh,
    rename_var,
    subst_cube,
    subst_typed,
)
from sstt.cube import INTERVAL, CONE, CZERO, CFst, CPair, CVar, display_name
from sstt.tope import TEq, TLe, TTop


def test_alpha_eq_binders():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("x", Var("x")), Lam("y", Var("x")))


def test_alpha_eq_random_self():
    rng = random.Random(7)
    for _ in range(200):
        e = random_expr(rng, depth=4)
        assert alpha_eq(e, e)


def test_subst_simple():
    e = App(Var("f"), Var("x"))
    assert subst_typed(e, {"x": Var("y")}) == App(Var("f"), Var("y"))


def test_subst_shadowed_binder_untouched():
    e = Lam("x", Var("x"))
    assert alpha_eq(subst_typed(e, {"x": Var("y")}), Lam("x", Var("x")))


def test_subst_capture_avoided():
    # substituting y for x under a binder named y must rename the binder
    e = Lam("y", App(Var("x"), Var("y")))
    out = subst_typed(e, {"x": Var("y")})
    assert alpha_eq(out, Lam("z", App(Var("y"), Var("z"))))
    assert not alpha_eq(out, Lam("z", App(Var("z"), Var("z"))))


def test_subst_cube_into_tope():
    # cube substitution reaches the topes of an extension type
    e = Ext("t", INTERVAL, TTop(), U(), TEq(CVar("t"), CVar("s")), Var("a"))
    out = subst_cube(e, {"s": CZERO})
    assert isinstance(out, Ext)
    assert out.boundary_tope == TEq(CVar(out.var), CZERO)


def test_subst_cube_binder_not_captured():
    # substituting a point mentioning t under a binder named t renames it
    e = Ext("t", INTERVAL, TTop(), U(), TLe(CVar("t"), CVar("s")), Var("a"))
    out = subst_cube(e, {"s": CVar("t")})
    assert isinstance(out, Ext)
    assert out.var != "t"
    assert out.boundary_tope == TLe(CVar(out.var), CVar("t"))


def test_cube_to_term_projections():
    t = cube_to_term(CFst(CVar("p")))
    assert t == Fst(Var("p"))
    assert cube_to_term(CPair(CZERO, CONE)) == Pair(CubeLit(CZERO), CubeLit(CONE))


def test_fresh_names_display():
    n = fresh("x")
    assert "$" in n
    assert "$" not in display_name(n)


def test_rename_var():
    e = App(Var("x"), Lam("x", Var("x")))
    out = rename_var(e, "x", "w")
    assert alpha_eq(out, App(Var("w"), Lam("x", Var("x"))))


def test_free_vars():
    e = Pi("x", Var("a"), App(Var("x"), Var("b")))
    assert free_vars(e) == {"a", "b"}


def test_fold_telescope_typed():
    tele = (TypedParam("A", U()), TypedParam("x", Var("A")))
    ty, body = fold_telescope(tele, Var("A"), Var("x"))
    assert isinstance(ty, Pi) and isinstance(body, Lam)


def test_fold_telescope_cube_becomes_extension():
    tele = (CubeParam("t", INTERVAL), TopeParam(TLe(CVar("t"), CONE)))
    ty, body = fold_telescope(tele, U(), U())
    assert isinstance(ty, Ext)
    assert isinstance(body, Lam)
