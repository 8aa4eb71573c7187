import copy
import itertools
import random
import typing

import pytest

from generators import CUBE_NAMES, NAMES, random_expr, random_point, random_term, random_tope
from sstt import core, cube, tope
from sstt.core import (
    U,
    App,
    Const,
    CubeLit,
    ExtApp,
    CubeParam,
    Ext,
    Fst,
    Lam,
    Pair,
    Pi,
    Refl,
    Sigma,
    Snd,
    Subst,
    TopeCase,
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
from sstt.cube import INTERVAL, CONE, CZERO, CFst, CPair, CSnd, CStar, CVar, Node, display_name
from sstt.scope import GlobalEnv
from sstt.tope import BOT, TAnd, TBot, TEq, TLe, TOr, TTop


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
    # the same walk covers cube points and topes, also under a binder
    assert free_vars(CVar("t")) == {"t"}
    assert free_vars(TOr(TLe(CFst(CVar("p")), CONE), TEq(CVar("t"), CZERO))) == {"p", "t"}
    ext = Ext("t", INTERVAL, TLe(CVar("t"), CVar("s")), U(), TEq(CVar("r"), CZERO),
              ExtApp(Var("f"), CSnd(CPair(CVar("t"), CVar("q")))))
    assert free_vars(ext) == {"s", "r", "f", "q"}


def test_fold_telescope_typed():
    tele = (TypedParam("A", U()), TypedParam("x", Var("A")))
    ty, body = fold_telescope(tele, Var("A"), Var("x"))
    assert isinstance(ty, Pi) and isinstance(body, Lam)


def test_fold_telescope_cube_becomes_extension():
    tele = (CubeParam("t", INTERVAL, TLe(CVar("t"), CONE)),)
    ty, body = fold_telescope(tele, U(), U())
    assert ty == Ext("t", INTERVAL, TLe(CVar("t"), CONE), U(), BOT, TopeCase(()))
    assert body == Lam("t", U())


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
    a, b = _node(cls, (0, 1)), _node(cls, (5, 9))
    assert a == b and not a != b and hash(a) == hash(b)
    fields = [f for f in cls.__match_args__ if f != "span"]
    for f in fields:
        assert a != _node(cls, (0, 1), **{f: (f, 2)}), f
    shown = ", ".join(f"{f}={(f, 1)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


def test_same_shaped_nodes_of_different_classes_differ():
    x, y = CVar("x"), CVar("y")
    for a, b in [(Var("x"), Const("x")), (TLe(x, y), TEq(x, y)),
                 (TAnd(TTop(), TTop()), TOr(TTop(), TTop())),
                 (Fst(Var("p")), Snd(Var("p")))]:
        assert a != b and b != a


def test_node_repr_shows_compared_fields():
    assert repr(Var("x", (0, 1))) == "Var(name='x')"
    assert repr(TLe(CFst(CVar("t")), CZERO)) == (
        "TLe(left=CFst(arg=CVar(name='t')), right=CZero())")


def test_copy_of_global_env_is_independent():
    env = GlobalEnv(decls={"a": None})
    other = copy.copy(env)
    other.decls = {**other.decls, "b": None}
    other.shapes = dict(other.shapes)
    assert other is not env and isinstance(other, GlobalEnv)
    assert env.decls == {"a": None} and other.decls == {"a": None, "b": None}


# -- laws of the walkers, on terms of every class

def _terms(seed, n=300, depth=4):
    rng = random.Random(seed)
    return [random_term(rng, depth) for _ in range(n)]


def _rename_binders(e, pick, env=None, depth=0):
    """``e`` with each binder renamed to ``pick(name, depth)`` and its bound
    occurrences following it, with no capture avoidance."""
    env = env or {}

    def go(sub, bound=None):  # ``bound``: the binder crossed, renamed
        inner = env if bound is None else {**env, bound[0]: bound[1]}
        return _rename_binders(sub, pick, inner, depth + (bound is not None))

    points = {old: CVar(new) for old, new in env.items()}
    match e:
        case Var(n):
            return Var(env.get(n, n))
        case Pi(x, a, b) | Sigma(x, a, b):
            y = pick(x, depth)
            return type(e)(y, go(a), go(b, (x, y)))
        case Lam(x, b):
            y = pick(x, depth)
            return Lam(y, go(b, (x, y)))
        case Ext(t, cu, psi, fam, phi, bd):
            y = pick(t, depth)
            inner = {**points, t: CVar(y)}
            return Ext(y, cu, tope.subst_tope_sim(psi, inner), go(fam, (t, y)),
                       tope.subst_tope_sim(phi, inner), go(bd, (t, y)))
        case ExtApp(f, c):
            return ExtApp(go(f), cube.subst_cube_sim(c, points))
        case TopeCase(bs):
            return TopeCase(tuple((tope.subst_tope_sim(t, points), go(b)) for t, b in bs))
        case CubeLit(c):
            return CubeLit(cube.subst_cube_sim(c, points))
        case Const() | Refl(None):
            return e
    return type(e)(*(go(getattr(e, f)) for f in e._fields))


def _canonical(e):
    """``e`` with the binder at depth k named ``#k``, which no term uses: two
    terms are alpha-equal iff their canonical forms are equal."""
    return _rename_binders(e, lambda name, depth: f"#{depth}")


def _capturing(rng):
    """Renames each binder to a name of its sort, bound or free elsewhere."""
    return lambda name, depth: rng.choice(CUBE_NAMES if name in CUBE_NAMES else NAMES)


EXPR_CLASSES = frozenset(typing.get_args(core.Expr))


def _subterms(e):
    todo = [e]
    while todo:
        n = todo.pop()
        yield n
        todo += [c for f in n._fields for c in [getattr(n, f)] if c.__class__ in EXPR_CLASSES]
        if isinstance(n, TopeCase):
            todo += [b for _, b in n.branches]


def test_random_terms_cover_every_class():
    assert {n.__class__ for e in _terms(1) for n in _subterms(e)} == EXPR_CLASSES


def test_alpha_eq_agrees_with_canonical_names():
    # pairs that differ only in binder names, some of them by a capture
    rng = random.Random(11)
    verdicts = []
    for e in _terms(2):
        for other in (_rename_binders(e, _capturing(rng)), random_term(rng, 2)):
            expected = _canonical(e) == _canonical(other)
            assert alpha_eq(e, other) == expected, (e, other)
            verdicts.append(expected)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_alpha_eq_is_symmetric():
    rng = random.Random(12)
    for e in _terms(3):
        other = _rename_binders(e, _capturing(rng))
        assert alpha_eq(e, other) == alpha_eq(other, e), (e, other)


def test_alpha_eq_survives_renaming_every_binder():
    names = (f"v{k}" for k in itertools.count())
    for e in _terms(4):
        renamed = _rename_binders(e, lambda name, depth: next(names))
        assert alpha_eq(e, renamed) and alpha_eq(renamed, e)


def test_equal_terms_are_alpha_equal():
    for a, b in zip(_terms(5), _terms(5)):
        assert a == b and a is not b
        assert alpha_eq(a, b) and alpha_eq(a, a)


def test_substituting_a_variable_for_itself():
    # a binder that shadows the name drops it from the substitution, and
    # nothing that remains could be captured, so no binder is renamed
    for e in _terms(6):
        for x in NAMES:
            out = subst_typed(e, {x: Var(x)})
            assert out == e and alpha_eq(out, e)


def test_a_binder_is_renamed_only_when_it_would_capture():
    # the shadowed value's free names do not count, the others do
    assert subst_typed(Lam("x", Var("y")), {"x": Var("x"), "y": Var("z")}) == Lam("x", Var("z"))
    out = subst_typed(Lam("x", Var("y")), {"x": Var("x"), "y": Var("x")})
    assert out.var != "x" and out.body == Var("x")


def test_substitution_hands_back_the_subterms_it_does_not_change():
    # a subterm in which no substituted name is free comes back as the very
    # node, also under a binder that a value's free name would capture
    rng = random.Random(14)
    shared = set()
    for e in _terms(8):
        values = {rng.choice(NAMES): random_term(rng, 1)}
        points = {rng.choice(CUBE_NAMES): random_point(rng, 1)}
        for s in (Subst(values, {}), Subst({}, points), Subst(values, points)):
            for t in _subterms(e):
                if free_vars(t).isdisjoint({*s.values, *s.points}):
                    assert s.expr(t) is t, (t, s.values, s.points)
                    shared.add(t.__class__)
    assert shared == EXPR_CLASSES


def test_binding_a_name_to_itself_leaves_nothing_of_it_pending():
    outer = [core.EMPTY, Subst({"x": Var("y"), "y": Var("x")}, {}),
             Subst({"y": Var("x")}, {"x": CZERO, "t": CVar("x")})]
    for s in outer:
        for sub in (s.bind("x", Var("x")), s.bind_point("x", CVar("x"))):
            assert sub.values == {k: v for k, v in s.values.items() if k != "x"}
            assert sub.points == {k: c for k, c in s.points.items() if k != "x"}
    e = Lam("y", App(Var("x"), Var("y")))
    assert core.EMPTY.bind("x", Var("x")).close(e) is e
    assert core.EMPTY.bind_point("x", CVar("x")).close(e) is e
    assert core.EMPTY.bind("x", Var("y")).values == {"x": Var("y")}


def test_free_vars_of_a_substitution():
    rng = random.Random(13)
    checked = 0
    for e in _terms(7):
        v = random_term(rng, 2)
        for x in sorted(free_vars(e) & set(NAMES)):
            out = subst_typed(e, {x: v})
            assert free_vars(out) == (free_vars(e) - {x}) | free_vars(v), (e, x, v)
            checked += 1
    assert checked > 100


def _parts(node):
    """``node``, a cube point or tope, and every point and tope in it."""
    yield node
    if node.__class__ is not CVar:
        for f in node._fields:
            yield from _parts(getattr(node, f))


def test_point_and_tope_substitutions_hand_back_what_they_do_not_change():
    # a part in which no mapped name is free comes back as the very node,
    # also when its whole is rebuilt around another part
    rng = random.Random(15)
    shared, changed = set(), 0
    topes = typing.get_args(tope.Tope)
    for _ in range(400):
        mapping = {rng.choice(CUBE_NAMES): random_point(rng, 1)}
        for node in (random_point(rng, 3), random_tope(rng, CUBE_NAMES, 3)):
            for part in _parts(node):
                subst = tope.subst_tope_sim if part.__class__ in topes else cube.subst_cube_sim
                out = subst(part, mapping)
                if free_vars(part).isdisjoint(mapping):
                    assert out is part, (part, mapping)
                    shared.add(part.__class__)
                else:
                    assert free_vars(out) == ((free_vars(part) - set(mapping))
                                              | free_vars(next(iter(mapping.values()))))
                    changed += 1
    assert shared == set(POINT_AND_TOPE_CLASSES) - {CStar, TTop, TBot} and changed > 300


# -- the walkers' tables and fast paths

POINT_AND_TOPE_CLASSES = typing.get_args(cube.CubeExpr) + typing.get_args(tope.Tope)


@pytest.mark.parametrize("table", ["_FREE", "_SUBST", "_ALPHA"])
def test_every_term_class_has_a_case(table):
    cases = getattr(core, table)
    assert [c.__name__ for c in typing.get_args(core.Expr) if c not in cases] == []


@pytest.mark.parametrize("table", ["_FREE", "_ALPHA"])
def test_every_point_and_tope_class_has_a_case(table):
    # a point or tope inside a term is walked by the term's walker, so no
    # class of either falls through to the table's default
    cases = getattr(core, table)
    assert [c.__name__ for c in POINT_AND_TOPE_CLASSES if c not in cases] == []


def test_substituting_into_a_non_node_is_a_type_error():
    with pytest.raises(TypeError, match="not an expression: 'x'"):
        subst_typed("x", {"x": Var("y")})
    with pytest.raises(TypeError, match="not an expression: 3"):
        subst_typed(App(Var("f"), 3), {"x": Var("y")})
    # nor does the free-variable walk pass over one
    with pytest.raises(TypeError, match="not an expression: 3"):
        free_vars(App(Var("f"), 3))


def test_empty_substitution_returns_the_term_itself():
    e = Lam("x", App(Var("f"), Var("x")))
    assert core.EMPTY.close(e) is e
    assert subst_typed(e, {}) is e


def test_alpha_eq_settles_identical_sides_under_binders_of_one_name():
    # the walker has no case for a telescope parameter, so only the fast
    # path settles it: a binder pair of one name leaves the maps empty and
    # the path open
    opaque = CubeParam("t", INTERVAL, TTop())
    a = Pi("x", Lam("y", Var("y")), App(Var("x"), opaque))
    assert alpha_eq(a, Pi("x", Lam("z", Var("z")), App(Var("x"), opaque)))
    assert not alpha_eq(a, Pi("w", Lam("y", Var("y")), App(Var("w"), opaque)))


def test_alpha_eq_pairs_binders_on_both_sides():
    # a bound name on one side never matches a free one, or one bound by
    # another binder, on the other
    assert not alpha_eq(Lam("a", Var("y")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("y", Var("y")), Lam("a", Var("y")))
    assert not alpha_eq(Lam("a", Lam("x", Var("a"))), Lam("x", Lam("x", Var("x"))))
    assert alpha_eq(Lam("a", Lam("x", Var("a"))), Lam("x", Lam("y", Var("x"))))
    ext = lambda t, s: Ext(t, INTERVAL, TLe(CVar(s), CONE), U(), TEq(CVar(s), CZERO), U())
    assert not alpha_eq(ext("t", "s"), ext("s", "s"))
    assert alpha_eq(ext("t", "t"), ext("s", "s"))
    # topes and cube points are compared, with or without binders crossed
    assert not alpha_eq(ext("t", "t"), ext("t", "s"))
    assert not alpha_eq(CubeLit(CZERO), CubeLit(CONE))
