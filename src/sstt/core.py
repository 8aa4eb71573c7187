"""Third layer: core terms and types.

One shared namespace covers cube variables and typed variables; the
three-layer context tracks which sort each name has.  Terms are immutable
trees, so they can be shared freely.

Substitution has one representation, ``Subst``: typed values and cube
points for disjoint sets of names, applied simultaneously and without
capture.  A cube point replaces its variable in cube position (extension
types, extension applications, tope-case scrutinees) and, through its term
embedding, in term position.  A binder is renamed only when it would
capture a free variable of a substituted value in a scope where a
substituted name is free, to the first ``name$k`` that is free in neither
the values nor the term; a binder that neither captures nor shadows a
substituted name is passed through without copying the mapping.  The
checker keeps a ``Subst`` pending while it reduces a term or walks an
elimination spine, extends it with ``bind`` and ``bind_point``, and
applies it once with ``close``; ``subst_typed``, ``subst_cube`` and
``rename_binder`` apply one directly.  Binding a name to itself drops the
name from the substitution instead of storing the identity.

Substitution keeps sharing: each case hands back the node itself when none
of its children changed and its binder kept its name, down to cube points
and topes.

The walkers ``free_vars``, ``Subst.expr`` and ``alpha_eq`` pick a node's
case with one lookup of its class in a table built at import.  The first
and last have a case for every class of term, cube point and tope, so one
walk covers a term and the topes under its binders, with the same binder
maps.  ``alpha_eq`` settles ``==`` sides at once, before any walk.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Container, Mapping, Optional, Union

from .cube import (
    CFst,
    COne,
    CPair,
    CSnd,
    CStar,
    CubeContext,
    CubeExpr,
    CubeType,
    CVar,
    CZero,
    Node,
    subst_cube_sim,
)
from .tope import (
    BOT,
    TOP,
    TAnd,
    TBot,
    TEq,
    TLe,
    TOr,
    Tope,
    TTop,
    subst_tope_sim,
    tope_and,
)


class Span(Node):
    __slots__ = __match_args__ = ("start", "end")

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


class UnitType(Node):
    __slots__ = __match_args__ = ("span",)


class UnitPoint(Node):
    __slots__ = __match_args__ = ("span",)


class Var(Node):
    __slots__ = __match_args__ = ("name", "span")


class Const(Node):
    __slots__ = __match_args__ = ("name", "span")


class Pi(Node):
    __slots__ = __match_args__ = ("var", "dom", "cod", "span")


class Lam(Node):
    __slots__ = __match_args__ = ("var", "body", "span")


class App(Node):
    __slots__ = __match_args__ = ("fn", "arg", "span")


class Sigma(Node):
    __slots__ = __match_args__ = ("var", "fst_ty", "snd_ty", "span")


class Pair(Node):
    __slots__ = __match_args__ = ("fst", "snd", "span")


class Fst(Node):
    __slots__ = __match_args__ = ("arg", "span")


class Snd(Node):
    __slots__ = __match_args__ = ("arg", "span")


class IdT(Node):
    __slots__ = __match_args__ = ("ty", "lhs", "rhs", "span")


class Refl(Node):
    __slots__ = __match_args__ = ("arg", "span")


class J(Node):
    __slots__ = __match_args__ = ("motive", "base", "path", "span")


class Ext(Node):
    """Extension type: sections of ``family`` over the shape ``{var : cube |
    shape_tope}`` that restrict on the sub-shape ``boundary_tope`` to
    ``boundary``.  ``var`` scopes over both topes, the family and the
    boundary term.  The parser builds it complete: over a shape domain it
    takes the shape's cube and its tope at ``var``."""

    __slots__ = __match_args__ = (
        "var", "cube", "shape_tope", "family", "boundary_tope", "boundary", "span")


class ExtApp(Node):
    __slots__ = __match_args__ = ("fn", "arg", "span")


class TopeCase(Node):
    """Case split over tope disjuncts; branches must agree where they
    overlap.  Topes refer to cube variables already in scope."""

    __slots__ = __match_args__ = ("branches", "span")


class Ann(Node):
    __slots__ = __match_args__ = ("expr", "ty", "span")


class CubeLit(Node):
    """An interval endpoint in term position.  Compound cube points embed
    into terms through pairs and projections (see ``cube_to_term``), so
    this only ever wraps an endpoint."""

    __slots__ = __match_args__ = ("expr", "span")


Expr = Union[
    U, UnitType, UnitPoint, Var, Const, Pi, Lam, App, Sigma, Pair, Fst, Snd,
    IdT, Refl, J, Ext, ExtApp, TopeCase, Ann, CubeLit,
]


# ---------------------------------------------------------------------------
# Walkers: each one picks a node's case with one lookup of its class

class _Cases(dict):
    """A walker's table ``{class: function}``; a class without an entry
    gets ``default``.  Never changed after import."""

    __slots__ = ("default",)

    def __init__(self, default, cases: dict):
        super().__init__(cases)
        self.default = default

    def __missing__(self, cls: type):
        return self.default


# ---------------------------------------------------------------------------
# Free variables (both sorts share the namespace)

# the classes of this and the lower layers whose fields are all subterms,
# points or topes, and those with none
_COMPOUND = (App, Pair, Fst, Snd, IdT, Refl, J, Ann, ExtApp, CubeLit,
             CPair, CFst, CSnd, TAnd, TOr, TLe, TEq)
_LEAVES = (U, UnitType, UnitPoint, CZero, COne, CStar, TTop, TBot,
           type(None))  # a bare ``refl`` has no argument


def free_vars(e: Expr) -> set[str]:
    return _FREE[e.__class__](e)


def _fv_binder(e: Union[Pi, Sigma]) -> set[str]:
    x, a, b = e._key(e)
    return _FREE[a.__class__](a) | (_FREE[b.__class__](b) - {x})


def _fv_ext(e: Ext) -> set[str]:
    parts = (e.shape_tope, e.family, e.boundary_tope, e.boundary)
    return set().union(*[_FREE[p.__class__](p) for p in parts]) - {e.var}


def _fv_children(e: Expr) -> set[str]:
    """The case of a node whose fields are subterms, points or topes."""
    children = [getattr(e, f) for f in e._fields]
    return set().union(*[_FREE[c.__class__](c) for c in children])


def _not_a_node(e: object):
    raise TypeError(f"not an expression: {e!r}")


_FREE = _Cases(_not_a_node, {
    Var: lambda e: {e.name},
    CVar: lambda e: {e.name},
    Pi: _fv_binder,
    Sigma: _fv_binder,
    Lam: lambda e: _FREE[e.body.__class__](e.body) - {e.var},
    Ext: _fv_ext,
    TopeCase: lambda e: set().union(*[_FREE[tp.__class__](tp) | _FREE[br.__class__](br)
                                      for tp, br in e.branches]),
    **dict.fromkeys(_COMPOUND, _fv_children),
    **dict.fromkeys((Const,) + _LEAVES, lambda e: set()),
})


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

    def bind(self, x: str, value: Expr) -> "Subst":
        if value.__class__ is Var and value.name == x:
            return self.drop(x)
        points = self.points
        if x in points:
            points = {k: c for k, c in points.items() if k != x}
        return Subst({**self.values, x: value}, points)

    def bind_point(self, x: str, point: CubeExpr) -> "Subst":
        if point.__class__ is CVar and point.name == x:
            return self.drop(x)
        values = self.values
        if x in values:
            values = {k: v for k, v in values.items() if k != x}
        return Subst(values, {**self.points, x: point})

    def drop(self, x: str) -> "Subst":
        """``x`` no longer substituted: it stands for itself."""
        if x not in self.values and x not in self.points:
            return self
        return Subst({k: v for k, v in self.values.items() if k != x},
                     {k: c for k, c in self.points.items() if k != x})

    def lookup(self, x: str) -> Expr:
        return self.values[x] if x in self.values else cube_to_term(self.points[x])

    def close(self, e: Expr) -> Expr:
        return subst_typed(e, self.values, self.points) if self.values or self.points else e

    def point(self, c: CubeExpr) -> CubeExpr:
        return subst_cube_sim(c, self.points) if self.points else c

    def tope(self, t: Tope) -> Tope:
        return subst_tope_sim(t, self.points) if self.points else t

    def free_names(self) -> set[str]:
        if self._fvs is None:  # the free names of the values, found once
            self._fvs = set().union(*map(free_vars, self.values.values()),
                                    *map(free_vars, self.points.values()))
        return self._fvs

    def under(self, x: str, node: Expr) -> tuple[str, "Subst"]:
        """The name of the binder ``x`` of ``node`` and the substitution for
        its scope: ``x`` no longer substituted, and renamed if it would
        capture a free name of a value that remains in a scope where a
        substituted name is free."""
        fvs = self.free_names()
        if x not in fvs and x not in self.values and x not in self.points:
            return x, self  # the binder neither shadows a substituted name nor captures
        sub = self.drop(x)
        if x not in fvs or x not in sub.free_names():  # x may be free only in its value
            return x, sub
        scope = free_vars(node)
        if scope.isdisjoint(sub.values) and scope.isdisjoint(sub.points):
            return x, sub  # nothing substituted is free in the scope
        nx = fresh(x, {*self.values, *self.points} | fvs | scope)
        renamed = Subst(sub.values, {**sub.points, x: CVar(nx)})
        renamed._fvs = sub.free_names() | {nx}
        return nx, renamed

    def expr(self, e: Expr) -> Expr:
        if not (self.values or self.points):
            return e
        return _SUBST[e.__class__](self, e)


def _subst_binder(s: Subst, e: Union[Pi, Sigma]) -> Expr:
    x, a, b = e._key(e)
    na = _SUBST[a.__class__](s, a)
    nx, sub = s.under(x, e)
    nb = sub.expr(b)
    return e if na is a and nb is b and nx is x else e.__class__(nx, na, nb, e.span)


def _subst_lam(s: Subst, e: Lam) -> Expr:
    nx, sub = s.under(e.var, e)
    body = sub.expr(e.body)
    return e if body is e.body and nx is e.var else Lam(nx, body, e.span)


def _subst_ext(s: Subst, e: Ext) -> Expr:
    nt, sub = s.under(e.var, e)
    psi, fam, phi, bd = (sub.tope(e.shape_tope), sub.expr(e.family),
                         sub.tope(e.boundary_tope), sub.expr(e.boundary))
    if (nt is e.var and fam is e.family and bd is e.boundary
            and psi is e.shape_tope and phi is e.boundary_tope):
        return e
    return Ext(nt, e.cube, psi, fam, phi, bd, e.span)


def _subst_one(s: Subst, e: Union[Fst, Snd, Refl]) -> Expr:
    """The case of a node with one subterm, ``arg`` (a bare ``refl`` has none)."""
    a = e.arg
    na = _SUBST[a.__class__](s, a)
    return e if na is a else e.__class__(na, e.span)


def _subst_two(s: Subst, e: Union[App, Pair, Ann]) -> Expr:
    a, b = e._key(e)
    na, nb = _SUBST[a.__class__](s, a), _SUBST[b.__class__](s, b)
    return e if na is a and nb is b else e.__class__(na, nb, e.span)


def _subst_three(s: Subst, e: Union[IdT, J]) -> Expr:
    a, b, c = e._key(e)
    na, nb = _SUBST[a.__class__](s, a), _SUBST[b.__class__](s, b)
    nc = _SUBST[c.__class__](s, c)
    return e if na is a and nb is b and nc is c else e.__class__(na, nb, nc, e.span)


def _subst_ext_app(s: Subst, e: ExtApp) -> Expr:
    fn = _SUBST[e.fn.__class__](s, e.fn)
    c = s.point(e.arg)
    return e if fn is e.fn and c is e.arg else ExtApp(fn, c, e.span)


def _subst_case(s: Subst, e: TopeCase) -> Expr:
    branches = tuple((s.tope(tp), _SUBST[br.__class__](s, br)) for tp, br in e.branches)
    if all(nb is b and nt is t for (nt, nb), (t, b) in zip(branches, e.branches)):
        return e
    return TopeCase(branches, e.span)


def _subst_lit(s: Subst, e: CubeLit) -> Expr:
    c = s.point(e.expr)
    return e if c is e.expr else CubeLit(c, e.span)


_SUBST = _Cases(lambda s, e: _not_a_node(e), {
    Var: lambda s, e: s.lookup(e.name) if e.name in s.values or e.name in s.points else e,
    Pi: _subst_binder,
    Sigma: _subst_binder,
    Lam: _subst_lam,
    **dict.fromkeys((Fst, Snd, Refl), _subst_one),
    **dict.fromkeys((App, Pair, Ann), _subst_two),
    **dict.fromkeys((IdT, J), _subst_three),
    Ext: _subst_ext,
    ExtApp: _subst_ext_app,
    TopeCase: _subst_case,
    CubeLit: _subst_lit,
    **dict.fromkeys((U, UnitType, UnitPoint, Const, type(None)), lambda s, e: e),
})


EMPTY = Subst({}, {})
UNIVERSE = U()  # the universe as a type, shared by every judgement that needs it


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
#
# The walker maps the names each side binds to a token for their binder
# pair, ``(x, y)``.  A variable stands for its token if bound and for its
# name if free, and two variables are equal when they stand for the same.
# A binder pair of one name that neither side maps yet changes neither map,
# so sides that have crossed only such pairs are equal when identical.

def alpha_eq(a: Expr, b: Expr) -> bool:
    """Structural equality up to renaming of bound variables."""
    return a is b or a == b or _alpha(a, b, {}, {})


def _alpha(a: Expr, b: Expr, left: dict, right: dict) -> bool:
    if a.__class__ is not b.__class__:
        return False
    if a is b and not left:
        return True
    return _ALPHA[a.__class__](a, b, left, right)


def _cross(x: str, y: str, left: dict, right: dict) -> tuple[dict, dict]:
    """The two maps under the binder pair ``x``, ``y``."""
    if x == y and x not in left and x not in right:
        return left, right
    return {**left, x: (x, y)}, {**right, y: (x, y)}


def _alpha_children(a: Expr, b: Expr, left: dict, right: dict) -> bool:
    """The case of a node whose fields are all subterms, points or topes."""
    return all(_alpha(getattr(a, f), getattr(b, f), left, right) for f in a._fields)


def _alpha_binder(a: Union[Pi, Sigma], b: Union[Pi, Sigma], left: dict, right: dict) -> bool:
    x, d1, c1 = a._key(a)
    y, d2, c2 = b._key(b)
    return _alpha(d1, d2, left, right) and _alpha(c1, c2, *_cross(x, y, left, right))


def _alpha_ext(a: Ext, b: Ext, left: dict, right: dict) -> bool:
    if a.cube != b.cube:
        return False
    left, right = _cross(a.var, b.var, left, right)
    return (_alpha(a.shape_tope, b.shape_tope, left, right)
            and _alpha(a.family, b.family, left, right)
            and _alpha(a.boundary_tope, b.boundary_tope, left, right)
            and _alpha(a.boundary, b.boundary, left, right))


def _alpha_case(a: TopeCase, b: TopeCase, left: dict, right: dict) -> bool:
    return len(a.branches) == len(b.branches) and all(
        _alpha(t1, t2, left, right) and _alpha(e1, e2, left, right)
        for (t1, e1), (t2, e2) in zip(a.branches, b.branches))


def _alpha_var(a: Union[Var, CVar], b: Union[Var, CVar], left: dict, right: dict) -> bool:
    return left.get(a.name, a.name) == right.get(b.name, b.name)


_ALPHA = _Cases(lambda a, b, left, right: False, {
    Var: _alpha_var,
    CVar: _alpha_var,
    Const: lambda a, b, left, right: a.name == b.name,
    Pi: _alpha_binder,
    Sigma: _alpha_binder,
    Lam: lambda a, b, left, right: _alpha(a.body, b.body, *_cross(a.var, b.var, left, right)),
    Ext: _alpha_ext,
    TopeCase: _alpha_case,
    **dict.fromkeys(_COMPOUND, _alpha_children),
    **dict.fromkeys(_LEAVES, lambda a, b, left, right: True),
})


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


class TopeParam(Node):
    __slots__ = __match_args__ = ("tope", "span")


class TypedParam(Node):
    __slots__ = __match_args__ = ("name", "ty", "span")


TeleParam = Union[CubeParam, TopeParam, TypedParam]


class Decl(Node):
    """A declaration: a telescope, a stated type, and (for definitions and
    proved theorems) a body.  The parser builds it with its names resolved,
    and the checker returns it checked.  ``ty``/``body`` are the
    telescope-folded forms consumed by the checker."""

    __match_args__ = ("name", "tag", "telescope", "inner_ty", "inner_body", "span")
    # the instance dict holds the lazily folded type and body
    __slots__ = __match_args__ + ("__dict__",)

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
    """Fold a telescope into a single type (and body), from the inside out:
    typed parameters become Pi/lambda, and a cube parameter becomes an
    extension type with an empty boundary over the sub-shape that the tope
    parameters after it carve (in layer order, all of them carve the last
    cube parameter)."""
    ty, body = inner_ty, inner_body
    topes: list[Tope] = []  # the tope parameters after the cube parameter next met, reversed
    for p in reversed(telescope):
        if isinstance(p, TopeParam):
            topes.append(p.tope)
            continue
        if isinstance(p, TypedParam):
            ty = Pi(p.name, p.ty, ty)
        else:
            ty = Ext(p.name, p.cube, tope_and(*reversed(topes)), ty, BOT, TopeCase(()))
            topes = []
        if body is not None:
            body = Lam(p.name, body)
    return ty, body
