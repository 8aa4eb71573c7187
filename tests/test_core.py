import copy
import random

import pytest

from generators import random_expr
from sstt import core, cube, tope
from sstt.core import (
    U,
    App,
    Const,
    CubeLit,
    CubeParam,
    Ext,
    Fst,
    Lam,
    Pair,
    Pi,
    Snd,
    Span,
    TopeParam,
    TypedParam,
    Var,
    alpha_eq,
    cube_to_term,
    fold_telescope,
    free_vars,
    fresh,
    rename_binder,
    subst_cube,
    subst_typed,
)
from sstt.cube import INTERVAL, CONE, CZERO, CFst, CPair, CVar, Node, display_name
from sstt.scope import GlobalEnv
from sstt.tope import TAnd, TEq, TLe, TOr, TTop


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
    n = fresh("x", set())
    assert "$" in n
    assert "$" not in display_name(n)


def test_fresh_is_the_first_unused_name():
    assert fresh("x", set()) == "x$1"
    assert fresh("x$1", {"x$1", "x$2", "y$3"}) == "x$3"


def test_renamed_binder_avoids_the_body_free_names():
    # y captures the substituted value, and y$1 is free in the body
    e = subst_typed(Lam("y", App(Var("x"), Var("y$1"))), {"x": Var("y")})
    assert alpha_eq(e, Lam("z", App(Var("y"), Var("y$1"))))


def test_rename_binder():
    # free occurrences follow the binder; an inner binder of the same name
    # hides them
    out = rename_binder(Lam("x", App(Var("x"), Lam("x", Var("x")))), "w")
    assert out.var == "w" and out.body == App(Var("w"), Lam("x", Var("x")))
    ext = rename_binder(Ext("t", INTERVAL, TLe(CVar("t"), CONE), Var("A"),
                            TEq(CVar("t"), CZERO), Var("t")), "s")
    assert ext == Ext("s", INTERVAL, TLe(CVar("s"), CONE), Var("A"),
                      TEq(CVar("s"), CZERO), Var("s"))


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


# -- the node contract: equality and hash by field, span aside

NODE_CLASSES = sorted(
    (c for m in (core, cube, tope) for c in vars(m).values()
     if isinstance(c, type) and issubclass(c, Node) and c is not Node
     and c.__module__ == m.__name__),
    key=lambda c: c.__name__)


def _node(cls, span, **changed):
    fields = {f: (f, 1) for f in cls.__match_args__ if f != "span"}
    fields.update(changed)
    if "span" in cls.__match_args__:
        fields["span"] = span
    return cls(**fields)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_nodes_compare_and_hash_by_field_not_span(cls):
    a, b = _node(cls, Span(0, 1)), _node(cls, Span(5, 9))
    assert a == b and not a != b and hash(a) == hash(b)
    fields = [f for f in cls.__match_args__ if f != "span"]
    for f in fields:
        assert a != _node(cls, Span(0, 1), **{f: (f, 2)}), f
    shown = ", ".join(f"{f}={(f, 1)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


def test_same_shaped_nodes_of_different_classes_differ():
    x, y = CVar("x"), CVar("y")
    for a, b in [(Var("x"), Const("x")), (TLe(x, y), TEq(x, y)),
                 (TAnd(TTop(), TTop()), TOr(TTop(), TTop())),
                 (Fst(Var("p")), Snd(Var("p")))]:
        assert a != b and b != a


def test_node_repr_shows_compared_fields():
    assert repr(Var("x", Span(0, 1))) == "Var(name='x')"
    assert repr(TLe(CFst(CVar("t")), CZERO)) == (
        "TLe(left=CFst(arg=CVar(name='t')), right=CZero())")


def test_copy_of_global_env_is_independent():
    env = GlobalEnv(decls={"a": None})
    other = copy.copy(env)
    other.decls = {**other.decls, "b": None}
    other.shapes = dict(other.shapes)
    assert other is not env and isinstance(other, GlobalEnv)
    assert env.decls == {"a": None} and other.decls == {"a": None, "b": None}
