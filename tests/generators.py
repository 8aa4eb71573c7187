"""Seeded random generators for well-scoped core expressions, topes, and
sequents, used by the round-trip, equality, and solver test suites."""

from __future__ import annotations

import random

from sstt.core import (
    U,
    App,
    Expr,
    Ext,
    Fst,
    IdT,
    J,
    Lam,
    Pair,
    Pi,
    Refl,
    Sigma,
    Snd,
    UnitPoint,
    UnitType,
    Var,
)
from sstt.cube import INTERVAL, CVar, CZERO, CONE
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
