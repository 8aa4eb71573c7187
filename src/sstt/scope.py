"""Scope resolution: a pass over the core terms built by the parser.

Responsibilities: resolve every ``Var`` to a local variable or a constant
(``Const``), rejecting unbound names, statements without a proof and shapes
used as terms; turn a Π whose domain names a shape into an extension type
over that shape, and give an extension type over a shape domain its cube;
expand shape applications in topes and check that a tope mentions only cube
variables in scope; make an extension type's boundary from its branches;
enforce the telescope layer order (cube parameters, then tope parameters,
then typed parameters).  A ``Decl`` folds its telescope into a single type
and body itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .core import (
    Ann,
    App,
    Const,
    CubeLit,
    CubeParam,
    Decl,
    DeclTag,
    Ext,
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
    Span,
    TeleParam,
    TopeCase,
    TopeParam,
    TypedParam,
    U,
    UnitPoint,
    UnitType,
    Var,
    fresh,
)
from .cube import CubeError, CubeType, CVar, cube_free_vars, split_cube
from .parser import STShapeApp, STope
from .tope import (
    BOT, Shape, TAnd, TEq, TLe, TOr, Tope, TopeError, normalize_tope, tope_or,
)


class ScopeError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span


@dataclass
class GlobalEnv:
    """Shapes and checked declarations accumulated across files."""

    shapes: dict[str, Shape] = field(default_factory=dict)
    decls: dict[str, Decl] = field(default_factory=dict)

    def taken(self, name: str) -> bool:
        return name in self.shapes or name in self.decls

    def referenceable(self, name: str) -> bool:
        d = self.decls.get(name)
        return d is not None and d.tag != DeclTag.THEOREM_STATED

    def add_decl(self, d: Decl) -> None:
        if self.taken(d.name):
            raise ScopeError(f"redefinition of {d.name!r}", d.span)
        self.decls[d.name] = d

    def add_shape(self, s: Shape) -> None:
        if self.taken(s.name):
            raise ScopeError(f"redefinition of {s.name!r}", s.span)
        self.shapes[s.name] = s


# ---------------------------------------------------------------------------
# Resolution

class Resolver:
    def __init__(self, env: GlobalEnv):
        self.env = env

    # -- topes

    def expand_tope(self, t: STope, locals_: dict[str, str],
                    span: Optional[Span] = None) -> Tope:
        """Expand shape applications and check that every variable in the
        tope is in scope."""
        match t:
            case STShapeApp(name, arg):
                sh = self.env.shapes.get(name)
                if sh is None:
                    raise ScopeError(f"unknown shape {name!r}", t.span or span)
                self._check_cube_vars(cube_free_vars(arg), locals_, t.span or span)
                return sh.applied_to(arg)
            case TAnd(a, b):
                return TAnd(self.expand_tope(a, locals_, span),
                            self.expand_tope(b, locals_, span))
            case TOr(a, b):
                return TOr(self.expand_tope(a, locals_, span),
                           self.expand_tope(b, locals_, span))
            case TLe(a, b) | TEq(a, b):
                self._check_cube_vars(cube_free_vars(a) | cube_free_vars(b),
                                      locals_, span)
                return t
            case _:
                return t

    def _check_cube_vars(self, names: set[str], locals_: dict[str, str],
                         span: Optional[Span]) -> None:
        for n in sorted(names):
            if n not in locals_:
                raise ScopeError(f"unbound variable {n!r} in tope", span)
            if locals_[n] == "typed":
                raise ScopeError(
                    f"variable {n!r} has a type, not a cube, and cannot appear in a tope",
                    span,
                )

    def _shape_named(self, name: str, locals_: dict[str, str]) -> Optional[Shape]:
        """The shape called ``name``, unless a local variable shadows it."""
        return None if name in locals_ else self.env.shapes.get(name)

    # -- expressions

    def resolve(self, e: Expr, locals_: dict[str, str]) -> Expr:
        match e:
            case Var(name):
                if name in locals_:
                    return e
                if name in self.env.decls:
                    if not self.env.referenceable(name):
                        raise ScopeError(
                            f"{name!r} is a statement without a proof and cannot be used",
                            e.span,
                        )
                    return Const(name, span=e.span)
                if name in self.env.shapes:
                    raise ScopeError(f"shape {name!r} used as a term", e.span)
                raise ScopeError(f"unbound name {name!r}", e.span)
            case U() | UnitType() | UnitPoint() | CubeLit():
                return e
            case Pi(x, a, b):
                sh = self._shape_named(a.name, locals_) if isinstance(a, Var) else None
                if sh is not None:
                    # the binder of an arrow ``S -> B`` has a generated name
                    # (with a "$"); its point gets a fresh one of its own
                    t = fresh("t") if "$" in x else x
                    cod = self.resolve(b, {**locals_, t: "cube"})
                    return Ext(t, sh.cube, sh.applied_to(CVar(t)), cod,
                               BOT, TopeCase(()), span=e.span)
                dom = self.resolve(a, locals_)
                return Pi(x, dom, self.resolve(b, {**locals_, x: "typed"}), span=e.span)
            case Sigma(x, a, b):
                dom = self.resolve(a, locals_)
                return Sigma(x, dom, self.resolve(b, {**locals_, x: "typed"}), span=e.span)
            case Lam(x, b):
                return Lam(x, self.resolve(b, {**locals_, x: "unknown"}), span=e.span)
            case App(f, a):
                return App(self.resolve(f, locals_), self.resolve(a, locals_), span=e.span)
            case Pair(a, b):
                return Pair(self.resolve(a, locals_), self.resolve(b, locals_), span=e.span)
            case Fst(a):
                return Fst(self.resolve(a, locals_), span=e.span)
            case Snd(a):
                return Snd(self.resolve(a, locals_), span=e.span)
            case IdT(t, l, r):
                return IdT(self.resolve(t, locals_), self.resolve(l, locals_),
                           self.resolve(r, locals_), span=e.span)
            case Refl(a):
                return Refl(self.resolve(a, locals_) if a is not None else None, span=e.span)
            case J(c, d, p):
                return J(self.resolve(c, locals_), self.resolve(d, locals_),
                         self.resolve(p, locals_), span=e.span)
            case Ext():
                return self.resolve_ext(e, locals_)
            case TopeCase(branches):
                bs = tuple(
                    (self.expand_tope(t, locals_, e.span), self.resolve(b, locals_))
                    for t, b in branches
                )
                return TopeCase(bs, span=e.span)
            case Ann(x, t):
                return Ann(self.resolve(x, locals_), self.resolve(t, locals_), span=e.span)
        raise ScopeError(f"cannot resolve {e!r}", getattr(e, "span", None))

    def resolve_ext(self, e: Ext, locals_: dict[str, str]) -> Expr:
        """An extension type as parsed: over a shape domain its cube is None
        and its shape tope that shape's placeholder, and its branches are a
        tope case from which the boundary tope and term are made here."""
        cube = e.cube
        if cube is None:
            sh = self._shape_named(e.shape_tope.name, locals_)
            if sh is None:
                raise ScopeError(
                    "an extension type needs a cube or shape domain", e.span)
            cube = sh.cube
        inner = {**locals_, e.var: "cube"}
        psi = self.expand_tope(e.shape_tope, inner, e.span)
        fam = self.resolve(e.family, inner)
        bs = tuple(
            (self.expand_tope(t, inner, e.span), self.resolve(b, inner))
            for t, b in e.boundary.branches
        )
        if not bs:
            phi, bd = BOT, TopeCase(())
        elif len(bs) == 1:
            phi, bd = bs[0]
        else:
            phi, bd = tope_or(*(t for t, _ in bs)), TopeCase(bs)
        return Ext(e.var, cube, psi, fam, phi, bd, span=e.span)

    # -- declarations

    def resolve_shape(self, s: Shape) -> Shape:
        try:
            factors = split_cube(s.cube, len(s.pattern))
        except CubeError as err:
            raise ScopeError(str(err), s.span) from None
        if len(set(s.pattern)) != len(s.pattern):
            raise ScopeError("repeated variable in shape pattern", s.span)
        locals_ = {n: "cube" for n in s.pattern}
        tope = self.expand_tope(s.tope, locals_, s.span)
        _validate_tope(dict(zip(s.pattern, factors)), tope, s.span)
        return replace(s, tope=tope)

    def resolve_decl(self, d: Decl) -> Decl:
        telescope: list[TeleParam] = []
        locals_: dict[str, str] = {}
        cube_ctx: dict[str, CubeType] = {}
        phase = 0  # 0: cube params, 1: tope params, 2: typed params
        group_ty: Optional[Expr] = None
        ty: Optional[Expr] = None
        for p in d.telescope:
            match p:
                case CubeParam(name, cube):
                    if phase > 0:
                        raise ScopeError(
                            "cube parameters must come before tope and typed parameters",
                            p.span,
                        )
                    self._bind_param(name, "cube", locals_, p.span)
                    cube_ctx[name] = cube
                    telescope.append(p)
                case TopeParam(stope):
                    if phase > 1:
                        raise ScopeError(
                            "tope parameters must come before typed parameters", p.span)
                    if not cube_ctx:
                        raise ScopeError(
                            "a tope parameter needs a cube parameter in scope", p.span)
                    phase = 1
                    tope = self.expand_tope(stope, locals_, p.span)
                    _validate_tope(cube_ctx, tope, p.span)
                    telescope.append(replace(p, tope=tope))
                case TypedParam(name, sty):
                    phase = 2
                    # the names of a group (x y : A) share one parsed type,
                    # resolved once before any of them is bound
                    if sty is not group_ty:
                        group_ty, ty = sty, self.resolve(sty, locals_)
                    self._bind_param(name, "typed", locals_, p.span)
                    telescope.append(replace(p, ty=ty))
        inner_ty = self.resolve(d.inner_ty, locals_)
        inner_body = self.resolve(d.inner_body, locals_) if d.inner_body is not None else None
        return replace(d, telescope=tuple(telescope), inner_ty=inner_ty,
                       inner_body=inner_body)

    def _bind_param(self, name: str, sort: str, locals_: dict[str, str],
                    span: Optional[Span]) -> None:
        if name in locals_:
            raise ScopeError(f"repeated parameter name {name!r}", span)
        if name in self.env.shapes:
            raise ScopeError(f"parameter {name!r} shadows a shape", span)
        locals_[name] = sort


def _validate_tope(ctx: dict[str, CubeType], t: Tope, span: Optional[Span]) -> None:
    """Check the cube expressions inside a tope against the cube context."""
    try:
        normalize_tope(ctx, t)
    except TopeError as err:
        raise ScopeError(str(err), span) from None


# ---------------------------------------------------------------------------
# Entry point

def elaborate_toplevels(items: list[Union[Decl, Shape]], env: GlobalEnv) -> list[Decl]:
    """Resolve a parsed file against (and into) the global environment.
    Declarations and shapes become visible to later items as they are
    processed; the resolved declarations are returned."""
    r = Resolver(env)
    out: list[Decl] = []
    for item in items:
        if isinstance(item, Shape):
            env.add_shape(r.resolve_shape(item))
        else:
            d = r.resolve_decl(item)
            env.add_decl(d)
            out.append(d)
    return out
