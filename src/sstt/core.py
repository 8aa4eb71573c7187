"""Third layer: core terms and types.

One shared namespace covers cube variables and typed variables; the
three-layer context tracks which sort each name has.  Terms are immutable
trees, so they can be shared freely.

Substitution has one representation, ``Subst``: typed values and cube
points for disjoint sets of names, applied simultaneously and without
capture.  A cube point replaces its variable in cube position (extension
types, extension applications, tope-case scrutinees) and, through its term
embedding, in term position.  A binder is renamed only when it would
capture a free variable of a substituted value, to the first ``name$k``
that is free in neither the values nor the term; a binder that neither
captures nor shadows a substituted name is passed through without copying
the mapping.  The checker keeps a ``Subst`` pending while it reduces a term
or walks an elimination spine, extends it with ``bind`` and
``bind_point``, and applies it once with ``close``; ``subst_typed``,
``subst_cube`` and ``rename_binder`` apply one directly.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Container, Mapping, Optional, Union

from .cube import (
    CFst,
    CPair,
    CSnd,
    CStar,
    CubeContext,
    CubeExpr,
    CubeType,
    CVar,
    Node,
    cube_free_vars,
    subst_cube_sim,
)
from .tope import (
    BOT,
    TOP,
    Tope,
    subst_tope_sim,
    tope_and,
    tope_free_vars,
)


class Span(Node):
    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        self._hash = None

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


def fresh(base: str, avoid: Container[str]) -> str:
    """The first ``base$k`` (k = 1, 2, ...) not in ``avoid``, the names in scope."""
    base = base.split("$")[0] or "x"
    k = 1
    while f"{base}${k}" in avoid:
        k += 1
    return f"{base}${k}"


# ---------------------------------------------------------------------------
# Terms


class U(Node):
    __slots__ = __match_args__ = ("span",)

    def __init__(self, span: Optional[Span] = None):
        self.span = span
        self._hash = None


class UnitType(Node):
    __slots__ = __match_args__ = ("span",)

    def __init__(self, span: Optional[Span] = None):
        self.span = span
        self._hash = None


class UnitPoint(Node):
    __slots__ = __match_args__ = ("span",)

    def __init__(self, span: Optional[Span] = None):
        self.span = span
        self._hash = None


class Var(Node):
    __slots__ = __match_args__ = ("name", "span")

    def __init__(self, name: str, span: Optional[Span] = None):
        self.name = name
        self.span = span
        self._hash = None


class Const(Node):
    __slots__ = __match_args__ = ("name", "span")

    def __init__(self, name: str, span: Optional[Span] = None):
        self.name = name
        self.span = span
        self._hash = None


class Pi(Node):
    __slots__ = __match_args__ = ("var", "dom", "cod", "span")

    def __init__(self, var: str, dom: Expr, cod: Expr, span: Optional[Span] = None):
        self.var = var
        self.dom = dom
        self.cod = cod
        self.span = span
        self._hash = None


class Lam(Node):
    __slots__ = __match_args__ = ("var", "body", "span")

    def __init__(self, var: str, body: Expr, span: Optional[Span] = None):
        self.var = var
        self.body = body
        self.span = span
        self._hash = None


class App(Node):
    __slots__ = __match_args__ = ("fn", "arg", "span")

    def __init__(self, fn: Expr, arg: Expr, span: Optional[Span] = None):
        self.fn = fn
        self.arg = arg
        self.span = span
        self._hash = None


class Sigma(Node):
    __slots__ = __match_args__ = ("var", "fst_ty", "snd_ty", "span")

    def __init__(self, var: str, fst_ty: Expr, snd_ty: Expr,
                 span: Optional[Span] = None):
        self.var = var
        self.fst_ty = fst_ty
        self.snd_ty = snd_ty
        self.span = span
        self._hash = None


class Pair(Node):
    __slots__ = __match_args__ = ("fst", "snd", "span")

    def __init__(self, fst: Expr, snd: Expr, span: Optional[Span] = None):
        self.fst = fst
        self.snd = snd
        self.span = span
        self._hash = None


class Fst(Node):
    __slots__ = __match_args__ = ("arg", "span")

    def __init__(self, arg: Expr, span: Optional[Span] = None):
        self.arg = arg
        self.span = span
        self._hash = None


class Snd(Node):
    __slots__ = __match_args__ = ("arg", "span")

    def __init__(self, arg: Expr, span: Optional[Span] = None):
        self.arg = arg
        self.span = span
        self._hash = None


class IdT(Node):
    __slots__ = __match_args__ = ("ty", "lhs", "rhs", "span")

    def __init__(self, ty: Expr, lhs: Expr, rhs: Expr, span: Optional[Span] = None):
        self.ty = ty
        self.lhs = lhs
        self.rhs = rhs
        self.span = span
        self._hash = None


class Refl(Node):
    __slots__ = __match_args__ = ("arg", "span")

    def __init__(self, arg: Optional[Expr] = None, span: Optional[Span] = None):
        self.arg = arg
        self.span = span
        self._hash = None


class J(Node):
    __slots__ = __match_args__ = ("motive", "base", "path", "span")

    def __init__(self, motive: Expr, base: Expr, path: Expr,
                 span: Optional[Span] = None):
        self.motive = motive
        self.base = base
        self.path = path
        self.span = span
        self._hash = None


class Ext(Node):
    """Extension type: sections of ``family`` over the shape ``{var : cube |
    shape_tope}`` that restrict on the sub-shape ``boundary_tope`` to
    ``boundary``.  ``var`` scopes over both topes, the family and the
    boundary term.  The parser builds it complete: over a shape domain it
    takes the shape's cube and its tope at ``var``."""

    __slots__ = __match_args__ = (
        "var", "cube", "shape_tope", "family", "boundary_tope", "boundary", "span")

    def __init__(self, var: str, cube: CubeType, shape_tope: Tope, family: Expr,
                 boundary_tope: Tope, boundary: Expr, span: Optional[Span] = None):
        self.var = var
        self.cube = cube
        self.shape_tope = shape_tope
        self.family = family
        self.boundary_tope = boundary_tope
        self.boundary = boundary
        self.span = span
        self._hash = None


class ExtApp(Node):
    __slots__ = __match_args__ = ("fn", "arg", "span")

    def __init__(self, fn: Expr, arg: CubeExpr, span: Optional[Span] = None):
        self.fn = fn
        self.arg = arg
        self.span = span
        self._hash = None


class TopeCase(Node):
    """Case split over tope disjuncts; branches must agree where they
    overlap.  Topes refer to cube variables already in scope."""

    __slots__ = __match_args__ = ("branches", "span")

    def __init__(self, branches: tuple[tuple[Tope, Expr], ...],
                 span: Optional[Span] = None):
        self.branches = branches
        self.span = span
        self._hash = None


class Ann(Node):
    __slots__ = __match_args__ = ("expr", "ty", "span")

    def __init__(self, expr: Expr, ty: Expr, span: Optional[Span] = None):
        self.expr = expr
        self.ty = ty
        self.span = span
        self._hash = None


class CubeLit(Node):
    """An interval endpoint in term position.  Compound cube points embed
    into terms through pairs and projections (see ``cube_to_term``), so
    this only ever wraps an endpoint."""

    __slots__ = __match_args__ = ("expr", "span")

    def __init__(self, expr: CubeExpr, span: Optional[Span] = None):
        self.expr = expr
        self.span = span
        self._hash = None


Expr = Union[
    U, UnitType, UnitPoint, Var, Const, Pi, Lam, App, Sigma, Pair, Fst, Snd,
    IdT, Refl, J, Ext, ExtApp, TopeCase, Ann, CubeLit,
]


# ---------------------------------------------------------------------------
# Free variables (both sorts share the namespace)

def free_vars(e: Expr) -> set[str]:
    match e:
        case Var(n):
            return {n}
        case Pi(x, a, b) | Sigma(x, a, b):
            return free_vars(a) | (free_vars(b) - {x})
        case Lam(x, b):
            return free_vars(b) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Pair(a, b):
            return free_vars(a) | free_vars(b)
        case Fst(a) | Snd(a):
            return free_vars(a)
        case IdT(t, l, r):
            return free_vars(t) | free_vars(l) | free_vars(r)
        case Refl(a):
            return free_vars(a) if a is not None else set()
        case J(c, d, p):
            return free_vars(c) | free_vars(d) | free_vars(p)
        case Ext(t, _, psi, fam, phi, bd):
            inner = (
                tope_free_vars(psi) | free_vars(fam) | tope_free_vars(phi) | free_vars(bd)
            )
            return inner - {t}
        case ExtApp(f, c):
            return free_vars(f) | cube_free_vars(c)
        case TopeCase(branches):
            out: set[str] = set()
            for tp, br in branches:
                out |= tope_free_vars(tp) | free_vars(br)
            return out
        case Ann(x, t):
            return free_vars(x) | free_vars(t)
        case CubeLit(c):
            return cube_free_vars(c)
        case _:
            return set()


# ---------------------------------------------------------------------------
# Renaming and substitution

class Subst:
    """A pending simultaneous capture-avoiding substitution: typed values
    and cube points for disjoint sets of names.  A cube point also replaces
    its variable in term position, through its term embedding.  Binding
    only extends it; ``close`` applies it to a term in one pass."""

    __slots__ = ("values", "points", "_fvs")

    def __init__(self, values: Mapping[str, Expr], points: Mapping[str, CubeExpr]):
        self.values = values
        self.points = points
        self._fvs: Optional[set[str]] = None

    def __bool__(self) -> bool:
        return bool(self.values or self.points)

    def bind(self, x: str, value: Expr) -> "Subst":
        points = self.points
        if x in points:
            points = {k: c for k, c in points.items() if k != x}
        return Subst({**self.values, x: value}, points)

    def bind_point(self, x: str, point: CubeExpr) -> "Subst":
        values = self.values
        if x in values:
            values = {k: v for k, v in values.items() if k != x}
        return Subst(values, {**self.points, x: point})

    def lookup(self, x: str) -> Expr:
        return self.values[x] if x in self.values else cube_to_term(self.points[x])

    def close(self, e: Expr) -> Expr:
        return subst_typed(e, self.values, self.points) if self else e

    def point(self, c: CubeExpr) -> CubeExpr:
        return subst_cube_sim(c, self.points) if self.points else c

    def tope(self, t: Tope) -> Tope:
        return subst_tope_sim(t, self.points) if self.points else t

    def under(self, x: str, node: Expr) -> tuple[str, "Subst"]:
        """The name of the binder ``x`` of ``node`` and the substitution for
        its scope: ``x`` no longer substituted, and renamed if it would
        capture a free name of a value."""
        if self._fvs is None:  # the free names of the values, found once
            self._fvs = set().union(*map(free_vars, self.values.values()),
                                    *map(cube_free_vars, self.points.values()))
        fvs = self._fvs
        if x not in self.values and x not in self.points and x not in fvs:
            # the binder neither shadows a substituted name nor captures
            return x, self
        sub = Subst({k: v for k, v in self.values.items() if k != x},
                    {k: c for k, c in self.points.items() if k != x})
        if x in fvs:
            nx = fresh(x, {*self.values, *self.points} | fvs | free_vars(node))
            sub.points[x] = CVar(nx)
            sub._fvs = fvs | {nx}
            return nx, sub
        return x, sub

    def expr(self, e: Expr) -> Expr:
        if not self:
            return e
        match e:
            case Var(n):
                return self.lookup(n) if n in self.values or n in self.points else e
            case Const(_) | U() | UnitType() | UnitPoint():
                return e
            case Pi(x, a, b):
                na = self.expr(a)
                nx, sub = self.under(x, e)
                return Pi(nx, na, sub.expr(b), span=e.span)
            case Sigma(x, a, b):
                na = self.expr(a)
                nx, sub = self.under(x, e)
                return Sigma(nx, na, sub.expr(b), span=e.span)
            case Lam(x, b):
                nx, sub = self.under(x, e)
                return Lam(nx, sub.expr(b), span=e.span)
            case App(f, a):
                return App(self.expr(f), self.expr(a), span=e.span)
            case Pair(a, b):
                return Pair(self.expr(a), self.expr(b), span=e.span)
            case Fst(a):
                return Fst(self.expr(a), span=e.span)
            case Snd(a):
                return Snd(self.expr(a), span=e.span)
            case IdT(t, l, r):
                return IdT(self.expr(t), self.expr(l), self.expr(r), span=e.span)
            case Refl(a):
                return Refl(self.expr(a) if a is not None else None, span=e.span)
            case J(c, d, p):
                return J(self.expr(c), self.expr(d), self.expr(p), span=e.span)
            case Ext(t, cube, psi, fam, phi, bd):
                nt, sub = self.under(t, e)
                return Ext(
                    nt, cube, sub.tope(psi), sub.expr(fam), sub.tope(phi), sub.expr(bd),
                    span=e.span,
                )
            case ExtApp(f, c):
                return ExtApp(self.expr(f), self.point(c), span=e.span)
            case TopeCase(branches):
                return TopeCase(
                    tuple((self.tope(tp), self.expr(br)) for tp, br in branches),
                    span=e.span,
                )
            case Ann(x, t):
                return Ann(self.expr(x), self.expr(t), span=e.span)
            case CubeLit(c):
                return CubeLit(self.point(c), span=e.span)
        raise TypeError(f"not an expression: {e!r}")


EMPTY = Subst({}, {})


def cube_to_term(c: CubeExpr, span: Optional[Span] = None) -> Expr:
    """Embed a cube point into the term language; every node built gets
    ``span``."""
    match c:
        case CVar(n):
            return Var(n, span=span)
        case CPair(a, b):
            return Pair(cube_to_term(a, span), cube_to_term(b, span), span=span)
        case CFst(a):
            return Fst(cube_to_term(a, span), span=span)
        case CSnd(a):
            return Snd(cube_to_term(a, span), span=span)
        case CStar():
            return UnitPoint(span=span)
        case _:
            return CubeLit(c, span=span)


def subst_typed(e: Expr, values: Mapping[str, Expr],
                points: Optional[Mapping[str, CubeExpr]] = None) -> Expr:
    """Simultaneous capture-avoiding substitution of ``values`` for typed
    variables and of ``points`` for cube variables.  The two mappings name
    disjoint variables.  A cube point replaces its variable both in cube
    position (topes, extension applications) and in term position (via the
    term embedding)."""
    return Subst(values, points or {}).expr(e)


def subst_cube(e: Expr, points: Mapping[str, CubeExpr]) -> Expr:
    """Capture-avoiding simultaneous substitution of cube points for cube
    variables, in both cube and term position."""
    return Subst({}, points).expr(e)


def rename_binder(e: Union[Pi, Sigma, Lam, Ext], new: str) -> Expr:
    """``e`` with its bound name changed to ``new``, which is not free in
    ``e``."""
    sub = Subst({}, {e.var: CVar(new)})
    match e:
        case Pi(_, a, b) | Sigma(_, a, b):
            return type(e)(new, a, sub.expr(b), span=e.span)
        case Lam(_, b):
            return Lam(new, sub.expr(b), span=e.span)
        case Ext(_, cube, psi, fam, phi, bd):
            return Ext(new, cube, sub.tope(psi), sub.expr(fam), sub.tope(phi), sub.expr(bd),
                       span=e.span)
    raise TypeError(f"not a binder: {e!r}")


# ---------------------------------------------------------------------------
# Alpha-equivalence

def _rename_cube_env(c: CubeExpr, env: dict[str, str]) -> CubeExpr:
    return subst_cube_sim(c, {old: CVar(new) for old, new in env.items()})


def _rename_tope_env(t: Tope, env: dict[str, str]) -> Tope:
    return subst_tope_sim(t, {old: CVar(new) for old, new in env.items()})


def alpha_eq(a: Expr, b: Expr, env: Optional[dict[str, str]] = None) -> bool:
    """Structural equality up to renaming of bound variables.  ``env`` maps
    binders of ``a`` to the corresponding binders of ``b``."""
    env = env or {}

    def go(a: Expr, b: Expr, env: dict[str, str]) -> bool:
        match a, b:
            case Var(n), Var(m):
                return env.get(n, n) == m
            case Const(n), Const(m):
                return n == m
            case U(), U():
                return True
            case UnitType(), UnitType():
                return True
            case UnitPoint(), UnitPoint():
                return True
            case Pi(x, d1, c1), Pi(y, d2, c2):
                return go(d1, d2, env) and go(c1, c2, {**env, x: y})
            case Sigma(x, d1, c1), Sigma(y, d2, c2):
                return go(d1, d2, env) and go(c1, c2, {**env, x: y})
            case Lam(x, b1), Lam(y, b2):
                return go(b1, b2, {**env, x: y})
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env) and go(a1, a2, env)
            case Pair(a1, b1), Pair(a2, b2):
                return go(a1, a2, env) and go(b1, b2, env)
            case Fst(a1), Fst(a2):
                return go(a1, a2, env)
            case Snd(a1), Snd(a2):
                return go(a1, a2, env)
            case IdT(t1, l1, r1), IdT(t2, l2, r2):
                return go(t1, t2, env) and go(l1, l2, env) and go(r1, r2, env)
            case Refl(x1), Refl(x2):
                if (x1 is None) != (x2 is None):
                    return False
                return x1 is None or go(x1, x2, env)
            case J(c1, d1, p1), J(c2, d2, p2):
                return go(c1, c2, env) and go(d1, d2, env) and go(p1, p2, env)
            case Ext(t1, cu1, ps1, f1, ph1, b1), Ext(t2, cu2, ps2, f2, ph2, b2):
                if cu1 != cu2:
                    return False
                env2 = {**env, t1: t2}
                return (
                    _rename_tope_env(ps1, env2) == ps2
                    and go(f1, f2, env2)
                    and _rename_tope_env(ph1, env2) == ph2
                    and go(b1, b2, env2)
                )
            case ExtApp(f1, c1), ExtApp(f2, c2):
                return go(f1, f2, env) and _rename_cube_env(c1, env) == c2
            case TopeCase(bs1), TopeCase(bs2):
                if len(bs1) != len(bs2):
                    return False
                return all(
                    _rename_tope_env(t1, env) == t2 and go(e1, e2, env)
                    for (t1, e1), (t2, e2) in zip(bs1, bs2)
                )
            case Ann(e1, t1), Ann(e2, t2):
                return go(e1, e2, env) and go(t1, t2, env)
            case CubeLit(c1), CubeLit(c2):
                return _rename_cube_env(c1, env) == c2
            case _:
                return False

    return go(a, b, env)


# ---------------------------------------------------------------------------
# Contexts

class TriContext(Node):
    """Three-layer context: cube variables, tope constraints, typed
    variables.  Tope refinement is monotone: binding only ever conjoins."""

    __slots__ = __match_args__ = ("cube_vars", "tope", "typed_vars")

    def __init__(self, cube_vars: tuple[tuple[str, CubeType], ...] = (), tope: Tope = TOP,
                 typed_vars: tuple[tuple[str, Optional[Expr]], ...] = ()):
        self.cube_vars = cube_vars
        self.tope = tope
        self.typed_vars = typed_vars
        self._hash = None

    def names(self) -> set[str]:
        """Every name the context binds, of either sort."""
        return {n for n, _ in self.cube_vars + self.typed_vars}

    def fresh(self, base: str) -> str:
        """A name for a new binder that the context does not bind yet."""
        return fresh(base, self.names())

    def bind_cube(self, name: str, cube: CubeType) -> "TriContext":
        return TriContext(self.cube_vars + ((name, cube),), self.tope, self.typed_vars)

    def bind_tope(self, t: Tope) -> "TriContext":
        return TriContext(self.cube_vars, tope_and(self.tope, t), self.typed_vars)

    def with_tope(self, t: Tope) -> "TriContext":
        """Replace the tope constraint (used for branch-wise reasoning)."""
        return TriContext(self.cube_vars, t, self.typed_vars)

    def bind_typed(self, name: str, ty: Optional[Expr]) -> "TriContext":
        return TriContext(self.cube_vars, self.tope, self.typed_vars + ((name, ty),))

    def lookup_typed(self, name: str) -> Optional[Expr]:
        for n, t in reversed(self.typed_vars):
            if n == name:
                return t
        return None

    def has_typed(self, name: str) -> bool:
        return any(n == name for n, _ in self.typed_vars)

    def lookup_cube(self, name: str) -> Optional[CubeType]:
        for n, t in reversed(self.cube_vars):
            if n == name:
                return t
        return None

    def cube_context(self) -> CubeContext:
        return dict(self.cube_vars)


# ---------------------------------------------------------------------------
# Declarations

class DeclTag(Enum):
    DEFINITION = "definition"
    AXIOM = "axiom"
    THEOREM_PROVED = "theorem-proved"
    THEOREM_STATED = "theorem-stated"


class CubeParam(Node):
    __slots__ = __match_args__ = ("name", "cube", "span")

    def __init__(self, name: str, cube: CubeType, span: Optional[Span] = None):
        self.name = name
        self.cube = cube
        self.span = span
        self._hash = None


class TopeParam(Node):
    __slots__ = __match_args__ = ("tope", "span")

    def __init__(self, tope: Tope, span: Optional[Span] = None):
        self.tope = tope
        self.span = span
        self._hash = None


class TypedParam(Node):
    __slots__ = __match_args__ = ("name", "ty", "span")

    def __init__(self, name: str, ty: Expr, span: Optional[Span] = None):
        self.name = name
        self.ty = ty
        self.span = span
        self._hash = None


TeleParam = Union[CubeParam, TopeParam, TypedParam]


class Decl(Node):
    """A declaration: a telescope, a stated type, and (for definitions and
    proved theorems) a body.  The parser builds it with its names resolved,
    and the checker returns it checked.  ``ty``/``body`` are the
    telescope-folded forms consumed by the checker."""

    __match_args__ = ("name", "tag", "telescope", "inner_ty", "inner_body", "span")
    # the instance dict holds the lazily folded type and body
    __slots__ = __match_args__ + ("__dict__",)

    def __init__(self, name: str, tag: DeclTag, telescope: tuple[TeleParam, ...],
                 inner_ty: Expr, inner_body: Optional[Expr], span: Optional[Span] = None):
        self.name = name
        self.tag = tag
        self.telescope = telescope
        self.inner_ty = inner_ty
        self.inner_body = inner_body
        self.span = span
        self._hash = None

    @cached_property
    def _folded(self) -> tuple[Expr, Optional[Expr]]:
        return fold_telescope(self.telescope, self.inner_ty, self.inner_body)

    @property
    def ty(self) -> Expr:
        return self._folded[0]

    @property
    def body(self) -> Optional[Expr]:
        return self._folded[1]


def fold_telescope(telescope: tuple[TeleParam, ...], inner_ty: Expr,
                   inner_body: Optional[Expr]) -> tuple[Expr, Optional[Expr]]:
    """Fold a telescope into a single type (and body): typed parameters
    become Pi/lambda, a cube parameter with its following tope parameters
    becomes an extension type over that sub-shape with empty boundary."""
    ty = inner_ty
    body = inner_body
    i = len(telescope)
    while i > 0:
        i -= 1
        p = telescope[i]
        if isinstance(p, TypedParam):
            ty = Pi(p.name, p.ty, ty)
            if body is not None:
                body = Lam(p.name, body)
        elif isinstance(p, CubeParam):
            # gather tope params that follow this cube param (already consumed
            # below when scanning right to left: collect pending topes)
            ty = Ext(p.name, p.cube, _pending_tope(telescope, i), ty,
                     BOT, TopeCase(()))
            if body is not None:
                body = Lam(p.name, body)
        else:
            # tope param: folded into the nearest enclosing cube param
            continue
    return ty, body


def _pending_tope(telescope: tuple[TeleParam, ...], cube_index: int) -> Tope:
    """The conjunction of tope parameters between this cube parameter and the
    next one (they constrain this cube variable's sub-shape)."""
    ts = []
    for p in telescope[cube_index + 1:]:
        if isinstance(p, CubeParam):
            break
        if isinstance(p, TopeParam):
            ts.append(p.tope)
    return tope_and(*ts)
