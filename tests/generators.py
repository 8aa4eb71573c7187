"""Seeded random generators for well-scoped core expressions, topes, and
sequents, used by the round-trip, equality, and solver test suites, and for
terms of every core class, used by the property tests of the kernel's
walkers."""

from __future__ import annotations

import random

from sstt.core import (
    U,
    Ann,
    App,
    Const,
    CubeLit,
    Expr,
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
    TopeCase,
    UnitPoint,
    UnitType,
    Var,
)
from sstt.cube import (
    INTERVAL, UNIT_CUBE, CFst, CONE, CPair, CSTAR, CSnd, CVar, CZERO, CubeExpr, CubeType,
    ProdCube,
)
from sstt.tope import Sequent, TAnd, TBot, TEq, TLe, TOr, TTop, Tope

NAMES = ["x", "y", "z", "f", "g", "a", "b"]


def random_expr(rng: random.Random, depth: int = 4,
                scope: tuple[str, ...] = ()) -> Expr:
    """A well-scoped (not necessarily well-typed) core expression."""
    leaves = ["U", "unit_ty", "unit", "refl0"]
    if scope:
        leaves.append("var")
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(leaves + [
            "pi", "lam", "app", "sigma", "pair", "fst", "snd",
            "id", "refl", "j", "ext",
        ])
    fresh = rng.choice(NAMES)
    sub = lambda d=1, sc=scope: random_expr(rng, depth - d, sc)
    match kind:
        case "U":
            return U()
        case "unit_ty":
            return UnitType()
        case "unit":
            return UnitPoint()
        case "var":
            return Var(rng.choice(scope))
        case "refl0":
            return Refl(None)
        case "pi":
            return Pi(fresh, sub(), sub(1, scope + (fresh,)))
        case "lam":
            return Lam(fresh, sub(1, scope + (fresh,)))
        case "app":
            return App(sub(), sub())
        case "sigma":
            return Sigma(fresh, sub(), sub(1, scope + (fresh,)))
        case "pair":
            return Pair(sub(), sub())
        case "fst":
            return Fst(sub())
        case "snd":
            return Snd(sub())
        case "id":
            return IdT(sub(), sub(), sub())
        case "refl":
            return Refl(sub())
        case "j":
            return J(sub(), sub(), sub())
        case "ext":
            t = rng.choice(["t", "s"])
            endpoints = [TEq(CVar(t), CZERO), TEq(CVar(t), CONE)]
            boundary = rng.choice([TBot()] + endpoints)
            family = sub(1, scope)
            body = sub(2, scope)
            return Ext(t, INTERVAL, TTop(), family, boundary, body)
    raise AssertionError(kind)


CUBE_NAMES = ["t", "s", "r"]
TERM_KINDS = ["U", "unit_ty", "unit", "var", "const", "pi", "lam", "app", "sigma",
              "pair", "fst", "snd", "id", "refl", "j", "ext", "ext_app",
              "tope_case", "ann", "cube_lit"]


def random_term(rng: random.Random, depth: int = 4) -> Expr:
    """A core term of any class, not necessarily well-scoped or well-typed.
    A name of ``NAMES`` stands only in term position; a name of
    ``CUBE_NAMES`` stands in cube position and, like a cube variable in the
    surface syntax, as a term.  Binders reuse and shadow names, and some
    variables of either sort are free."""
    if depth <= 0:
        kind = rng.choice(["U", "unit_ty", "unit", "var", "const", "cube_lit"])
    else:
        kind = rng.choice(TERM_KINDS)
    sub = lambda: random_term(rng, depth - 1)
    match kind:
        case "U":
            return U()
        case "unit_ty":
            return UnitType()
        case "unit":
            return UnitPoint()
        case "var":
            return Var(rng.choice(NAMES + CUBE_NAMES[:1]))
        case "const":
            return Const(rng.choice(["hom", "id", "x"]))
        case "pi":
            return Pi(rng.choice(NAMES), sub(), sub())
        case "lam":
            return Lam(rng.choice(NAMES + CUBE_NAMES), sub())
        case "app":
            return App(sub(), sub())
        case "sigma":
            return Sigma(rng.choice(NAMES), sub(), sub())
        case "pair":
            return Pair(sub(), sub())
        case "fst":
            return Fst(sub())
        case "snd":
            return Snd(sub())
        case "id":
            return IdT(sub(), sub(), sub())
        case "refl":
            return Refl(rng.choice([None, sub()]))
        case "j":
            return J(sub(), sub(), sub())
        case "ext":
            cube = rng.choice([INTERVAL, ProdCube(INTERVAL, INTERVAL)])
            return Ext(rng.choice(CUBE_NAMES), cube, random_tope(rng, CUBE_NAMES, 1),
                       sub(), random_tope(rng, CUBE_NAMES, 1), sub())
        case "ext_app":
            return ExtApp(sub(), random_point(rng, 2))
        case "tope_case":
            return TopeCase(tuple((random_tope(rng, CUBE_NAMES, 1), sub())
                                  for _ in range(rng.randrange(3))))
        case "ann":
            return Ann(sub(), sub())
        case "cube_lit":
            return CubeLit(rng.choice([CZERO, CONE]))
    raise AssertionError(kind)


def random_point(rng: random.Random, depth: int):
    """A cube point over the names of ``CUBE_NAMES``."""
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([CZERO, CONE] + [CVar(n) for n in CUBE_NAMES])
    if rng.random() < 0.5:
        return CPair(random_point(rng, depth - 1), random_point(rng, depth - 1))
    return rng.choice([CFst, CSnd])(random_point(rng, depth - 1))


def random_tope(rng: random.Random, names: list[str], depth: int) -> Tope:
    points = [CZERO, CONE] + [CVar(n) for n in names]
    if depth <= 0 or rng.random() < 0.4:
        rel = rng.choice([TLe, TEq])
        return rel(rng.choice(points), rng.choice(points))
    op = rng.choice([TAnd, TOr])
    return op(random_tope(rng, names, depth - 1),
              random_tope(rng, names, depth - 1))


def random_sequent(rng: random.Random, n_vars: int = 4,
                   depth: int = 3) -> Sequent:
    names = [f"t{i}" for i in range(1, n_vars + 1)]
    ctx = tuple((n, INTERVAL) for n in names)
    return Sequent(ctx, random_tope(rng, names, depth),
                   random_tope(rng, names, depth))


SQUARE = ProdCube(INTERVAL, INTERVAL)
TYPED_CUBES = [INTERVAL, UNIT_CUBE, SQUARE, ProdCube(SQUARE, INTERVAL)]


def random_typed_point(rng: random.Random, ctx: dict[str, CubeType],
                       cube: CubeType, depth: int) -> CubeExpr:
    """A point of ``cube`` over ``ctx``, not in normal form in general: it
    may name variables of product cubes and project out of pairs."""
    kinds = ["var"] if cube in ctx.values() else []
    if cube == INTERVAL:
        kinds += ["0", "1"]
    elif cube == UNIT_CUBE:
        kinds.append("star")
    else:
        kinds.append("pair")
    if depth > 0:
        kinds += ["fst", "snd"]
    other = rng.choice(TYPED_CUBES)
    sub = lambda c: random_typed_point(rng, ctx, c, depth - 1)
    match rng.choice(kinds):
        case "var":
            return CVar(rng.choice([n for n, c in ctx.items() if c == cube]))
        case "0":
            return CZERO
        case "1":
            return CONE
        case "star":
            return CSTAR
        case "pair":
            return CPair(sub(cube.left), sub(cube.right))
        case "fst":
            return CFst(sub(ProdCube(cube, other)))
        case "snd":
            return CSnd(sub(ProdCube(other, cube)))


def random_typed_tope(rng: random.Random, ctx: dict[str, CubeType], depth: int) -> Tope:
    """A well-typed tope over ``ctx`` whose points are not normal in
    general; equalities may equate points of any cube of ``TYPED_CUBES``."""
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return TLe(random_typed_point(rng, ctx, INTERVAL, 2),
                       random_typed_point(rng, ctx, INTERVAL, 2))
        cube = rng.choice(TYPED_CUBES)
        return TEq(random_typed_point(rng, ctx, cube, 2),
                   random_typed_point(rng, ctx, cube, 2))
    if rng.random() < 0.1:
        return rng.choice([TTop(), TBot()])
    op = rng.choice([TAnd, TOr])
    return op(random_typed_tope(rng, ctx, depth - 1),
              random_typed_tope(rng, ctx, depth - 1))
