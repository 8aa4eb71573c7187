"""Pretty-printing of core terms back to the surface syntax.

Printing then parsing and resolving yields an alpha-equivalent term.
Internally generated names (which contain ``$``) are mapped back to plain
identifiers, renamed where that would capture or collide with a keyword.

This module prints terms only.  Cube types and points are printed by
``cube.print_cube_type`` and ``cube.print_cube_expr``, and topes by
``tope.print_tope``; they are re-exported here.
"""

from __future__ import annotations

from .core import (
    Ann,
    App,
    Const,
    CubeLit,
    Ext,
    ExtApp,
    Expr,
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
    U,
    UnitPoint,
    UnitType,
    Var,
    free_vars,
)
from .cube import display_name, print_cube_expr, print_cube_type
from .parser import KEYWORDS
from .tope import BOT, TOP, print_tope, tope_or

# precedence levels, loosest to tightest; a node is parenthesized when its
# own level is looser than the position demands
LAM, ARROW, SIGMA_OP, APP, PREFIX, ATOM = range(6)


def _pick_name(x: str, avoid: set[str]) -> str:
    base = display_name(x) or "x"
    if base[0].isdigit():
        base = "x" + base
    while base in avoid or base in KEYWORDS:
        base += "'"
    return base


def _binder_env(x: str, parts: list, env: dict[str, str]):
    avoid = {env.get(v, display_name(v)) for p in parts for v in free_vars(p) if v != x}
    nx = _pick_name(x, avoid)
    return nx, {**env, x: nx}


def print_expr(e: Expr, env: dict[str, str] | None = None, level: int = LAM) -> str:
    env = env or {}
    return _go(e, env, level)


def _paren(s: str, own: int, level: int) -> str:
    return f"({s})" if own < level else s


def _go(e: Expr, env: dict[str, str], level: int) -> str:
    match e:
        case U():
            return "U"
        case UnitType():
            return "Unit"
        case UnitPoint():
            return "star"
        case CubeLit(c):
            return print_cube_expr(c, env, atom=True)
        case Var(n):
            return env.get(n, display_name(n))
        case Const(n):
            return n
        case Lam(x, b):
            nx, env2 = _binder_env(x, [b], env)
            return _paren(f"\\{nx}. {_go(b, env2, LAM)}", LAM, level)
        case Pi(x, d, c):
            if x in free_vars(c):
                nx, env2 = _binder_env(x, [c], env)
                s = f"({nx} : {_go(d, env, LAM)}) -> {_go(c, env2, ARROW)}"
            else:
                dom = _go(d, env, SIGMA_OP)
                if isinstance(d, Ann):  # else (x : A) -> B reads as a binder
                    dom = f"({dom})"
                s = f"{dom} -> {_go(c, env, ARROW)}"
            return _paren(s, ARROW, level)
        case Ext(t, cube, psi, fam, phi, bd):
            return _print_ext(e, env, level)
        case Sigma(x, a, b):
            if x in free_vars(b):
                nx, env2 = _binder_env(x, [b], env)
                s = f"Sigma ({nx} : {_go(a, env, LAM)}) {_go(b, env2, ATOM)}"
                return _paren(s, PREFIX, level)
            s = f"{_go(a, env, APP)} * {_go(b, env, SIGMA_OP)}"
            return _paren(s, SIGMA_OP, level)
        case App(f, a):
            head = _go(f, env, APP)
            # heads that would swallow the argument on re-parse: a bare
            # "refl" takes an optional atom, and a dependent Sigma's body
            # extends over a whole application
            greedy = (isinstance(f, Refl) and f.arg is None) or (
                isinstance(f, Sigma) and f.var in free_vars(f.snd_ty))
            if greedy:
                head = f"({head})"
            s = f"{head} {_go(a, env, ATOM)}"
            return _paren(s, APP, level)
        case ExtApp(f, c):
            s = f"{_go(f, env, APP)} {print_cube_expr(c, env, atom=True)}"
            return _paren(s, APP, level)
        case Pair(a, b):
            return f"({_go(a, env, LAM)}, {_go(b, env, LAM)})"
        case Fst(a):
            return _paren(f"fst {_go(a, env, ATOM)}", PREFIX, level)
        case Snd(a):
            return _paren(f"snd {_go(a, env, ATOM)}", PREFIX, level)
        case IdT(t, l, r):
            s = f"Id {_go(t, env, ATOM)} {_go(l, env, ATOM)} {_go(r, env, ATOM)}"
            return _paren(s, PREFIX, level)
        case Refl(a):
            if a is None:
                return _paren("refl", PREFIX, level)
            return _paren(f"refl {_go(a, env, ATOM)}", PREFIX, level)
        case J(c, d, p):
            s = f"J {_go(c, env, ATOM)} {_go(d, env, ATOM)} {_go(p, env, ATOM)}"
            return _paren(s, PREFIX, level)
        case TopeCase(branches):
            inner = " | ".join(
                f"{print_tope(t, env)} |-> {_go(b, env, LAM)}" for t, b in branches
            )
            s = f"[ {inner} ]" if branches else "[]"
            # brackets are not valid application arguments, so always wrap
            # unless we are in a free-standing position
            return f"({s})" if level > LAM else s
        case Ann(x, t):
            return f"({_go(x, env, LAM)} : {_go(t, env, LAM)})"
    raise TypeError(f"not an expression: {e!r}")


def _print_ext(e: Ext, env: dict[str, str], level: int) -> str:
    nx, env2 = _binder_env(e.var, [e], env)  # free in e: free in a part, but not e.var
    if e.shape_tope == TOP:
        dom = print_cube_type(e.cube)
    else:
        dom = f"{print_cube_type(e.cube)} | {print_tope(e.shape_tope, env2)}"
    trivial = e.boundary_tope == BOT and e.boundary == TopeCase(())
    if trivial:
        s = f"({nx} : {dom}) -> {_go(e.family, env2, ARROW)}"
        return _paren(s, ARROW, level)
    # the parser reads two or more branches as a tope case under their
    # disjunction, and one branch as its body under its tope
    branches = ((e.boundary_tope, e.boundary),)
    if (isinstance(e.boundary, TopeCase) and len(e.boundary.branches) > 1
            and e.boundary_tope == tope_or(*(t for t, _ in e.boundary.branches))):
        branches = e.boundary.branches
    inner = " | ".join(f"{print_tope(t, env2)} |-> {_go(b, env2, LAM)}" for t, b in branches)
    fam = _go(e.family, env2, SIGMA_OP)
    return f"<Pi ({nx} : {dom}) -> {fam} [ {inner} ]>"
