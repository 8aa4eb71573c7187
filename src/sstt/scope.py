"""Scope resolution: surface AST to core terms.

Responsibilities: resolve identifiers to local variables or constants,
expand named shapes (in topes, binder domains and arrow domains), desugar
tuple-pattern lambdas, enforce the telescope layer order (cube parameters,
then tope parameters, then typed parameters), and fold telescopes into a
single core type and body per declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    fold_telescope,
    fresh,
    subst_cube,
)
from .cube import (
    CONE,
    CubeError,
    CubeType,
    CVar,
    CZERO,
    cube_free_vars,
    split_cube,
    split_point,
)
from .parser import (
    SAnnE,
    SApp,
    SArrow,
    SCaseE,
    SDecl,
    SDom,
    SDomCube,
    SDomExpr,
    SExpr,
    SExtE,
    SFstE,
    SIdE,
    SJE,
    SLam,
    SNum,
    SPairE,
    SParamCube,
    SParamTope,
    SParamTyped,
    SPiB,
    SReflE,
    SShapeDecl,
    SSigmaB,
    SSigmaOp,
    SSndE,
    SStarE,
    STShapeApp,
    STope,
    STopLevel,
    SU,
    SUnitT,
    SVar,
)
from .tope import (
    BOT, TOP, Shape, TAnd, TEq, TLe, TOr, Tope, TopeError, normalize_tope, tope_or,
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

    def add_shape(self, s: Shape, span: Optional[Span] = None) -> None:
        if self.taken(s.name):
            raise ScopeError(f"redefinition of {s.name!r}", span)
        self.shapes[s.name] = s


# ---------------------------------------------------------------------------
# Elaboration

class Elaborator:
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

    # -- expressions

    def elab(self, e: SExpr, locals_: dict[str, str]) -> Expr:
        match e:
            case SVar(name):
                if name in locals_:
                    return Var(name, span=e.span)
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
            case SU():
                return U(span=e.span)
            case SUnitT():
                return UnitType(span=e.span)
            case SStarE():
                return UnitPoint(span=e.span)
            case SNum(v):
                return CubeLit(CONE if v else CZERO, span=e.span)
            case SPiB(var, dom, cod):
                return self.elab_binder(var, dom, cod, e.span, locals_)
            case SArrow(a, b):
                sh = self._as_shape(a)
                if sh is not None and not (isinstance(a, SVar) and a.name in locals_):
                    v = fresh("t")
                    cod = self.elab(b, locals_)
                    return Ext(v, sh.cube, sh.applied_to(CVar(v)), cod,
                               BOT, TopeCase(()), span=e.span)
                v = fresh("x")
                return Pi(v, self.elab(a, locals_), self.elab(b, locals_), span=e.span)
            case SSigmaOp(a, b):
                v = fresh("x")
                return Sigma(v, self.elab(a, locals_), self.elab(b, locals_), span=e.span)
            case SSigmaB(var, dom, body):
                d = self.elab(dom, locals_)
                inner = {**locals_, var: "typed"}
                return Sigma(var, d, self.elab(body, inner), span=e.span)
            case SLam(pattern, tuple_pattern, body):
                if not tuple_pattern:
                    name = pattern[0]
                    inner = {**locals_, name: "unknown"}
                    return Lam(name, self.elab(body, inner), span=e.span)
                inner = {**locals_, **{n: "cube" for n in pattern}}
                b = self.elab(body, inner)
                p = fresh("p")
                comps = split_point(CVar(p), len(pattern))
                b = subst_cube(b, dict(zip(pattern, comps)))
                return Lam(p, b, span=e.span)
            case SApp(f, a):
                return App(self.elab(f, locals_), self.elab(a, locals_), span=e.span)
            case SPairE(a, b):
                return Pair(self.elab(a, locals_), self.elab(b, locals_), span=e.span)
            case SFstE(a):
                return Fst(self.elab(a, locals_), span=e.span)
            case SSndE(a):
                return Snd(self.elab(a, locals_), span=e.span)
            case SIdE(t, l, r):
                return IdT(self.elab(t, locals_), self.elab(l, locals_),
                           self.elab(r, locals_), span=e.span)
            case SReflE(a):
                return Refl(self.elab(a, locals_) if a is not None else None, span=e.span)
            case SJE(c, d, p):
                return J(self.elab(c, locals_), self.elab(d, locals_),
                         self.elab(p, locals_), span=e.span)
            case SExtE(var, dom, family, branches):
                return self.elab_ext(var, dom, family, branches, e.span, locals_)
            case SCaseE(branches):
                bs = tuple(
                    (self.expand_tope(t, locals_, e.span), self.elab(b, locals_))
                    for t, b in branches
                )
                return TopeCase(bs, span=e.span)
            case SAnnE(x, t):
                return Ann(self.elab(x, locals_), self.elab(t, locals_), span=e.span)
        raise ScopeError(f"cannot elaborate {e!r}", getattr(e, "span", None))

    def _as_shape(self, e: SExpr) -> Optional[Shape]:
        if isinstance(e, SVar):
            return self.env.shapes.get(e.name)
        return None

    def elab_binder(self, var: str, dom: SDom, cod: SExpr, span: Optional[Span],
                    locals_: dict[str, str]) -> Expr:
        cube_dom = self._resolve_cube_dom(dom, var, locals_)
        if cube_dom is not None:
            cube, psi = cube_dom
            inner = {**locals_, var: "cube"}
            return Ext(var, cube, psi, self.elab(cod, inner), BOT, TopeCase(()),
                       span=span)
        assert isinstance(dom, SDomExpr)
        d = self.elab(dom.expr, locals_)
        inner = {**locals_, var: "typed"}
        return Pi(var, d, self.elab(cod, inner), span=span)

    def _resolve_cube_dom(self, dom: SDom, var: str,
                          locals_: dict[str, str]) -> Optional[tuple[CubeType, Tope]]:
        if isinstance(dom, SDomCube):
            inner = {**locals_, var: "cube"}
            psi = TOP if dom.tope is None else self.expand_tope(dom.tope, inner, dom.span)
            return dom.cube, psi
        sh = self._as_shape(dom.expr)
        if sh is not None and not (isinstance(dom.expr, SVar)
                                   and dom.expr.name in locals_):
            return sh.cube, sh.applied_to(CVar(var))
        return None

    def elab_ext(self, var: str, dom: SDom, family: SExpr,
                 branches: tuple[tuple[STope, SExpr], ...], span: Optional[Span],
                 locals_: dict[str, str]) -> Expr:
        cube_dom = self._resolve_cube_dom(dom, var, locals_)
        if cube_dom is None:
            raise ScopeError(
                "an extension type needs a cube or shape domain", span)
        cube, psi = cube_dom
        inner = {**locals_, var: "cube"}
        fam = self.elab(family, inner)
        bs = tuple(
            (self.expand_tope(t, inner, span), self.elab(b, inner))
            for t, b in branches
        )
        if not bs:
            phi, bd = BOT, TopeCase(())
        elif len(bs) == 1:
            phi, bd = bs[0]
        else:
            phi, bd = tope_or(*(t for t, _ in bs)), TopeCase(bs)
        return Ext(var, cube, psi, fam, phi, bd, span=span)

    # -- declarations

    def elab_shape_decl(self, sd: SShapeDecl) -> Shape:
        try:
            factors = split_cube(sd.cube, len(sd.pattern))
        except CubeError as err:
            raise ScopeError(str(err), sd.span) from None
        if len(set(sd.pattern)) != len(sd.pattern):
            raise ScopeError("repeated variable in shape pattern", sd.span)
        locals_ = {n: "cube" for n in sd.pattern}
        tope = self.expand_tope(sd.tope, locals_, sd.span)
        ctx = dict(zip(sd.pattern, factors))
        _validate_tope(ctx, tope, sd.span)
        return Shape(sd.name, sd.pattern, sd.cube, tope)

    def elab_decl(self, sd: SDecl) -> Decl:
        telescope: list[TeleParam] = []
        locals_: dict[str, str] = {}
        cube_ctx: dict[str, CubeType] = {}
        phase = 0  # 0: cube params, 1: tope params, 2: typed params
        for p in sd.params:
            match p:
                case SParamCube(names, cube):
                    if phase > 0:
                        raise ScopeError(
                            "cube parameters must come before tope and typed parameters",
                            p.span,
                        )
                    for n in names:
                        self._bind_param(n, "cube", locals_, p.span)
                        cube_ctx[n] = cube
                        telescope.append(CubeParam(n, cube))
                case SParamTope(stope):
                    if phase > 1:
                        raise ScopeError(
                            "tope parameters must come before typed parameters", p.span)
                    if not cube_ctx:
                        raise ScopeError(
                            "a tope parameter needs a cube parameter in scope", p.span)
                    phase = 1
                    tope = self.expand_tope(stope, locals_, p.span)
                    _validate_tope(cube_ctx, tope, p.span)
                    telescope.append(TopeParam(tope))
                case SParamTyped(names, sty):
                    phase = 2
                    ty = self.elab(sty, locals_)
                    for n in names:
                        self._bind_param(n, "typed", locals_, p.span)
                        telescope.append(TypedParam(n, ty))
        inner_ty = self.elab(sd.ty, locals_)
        inner_body = self.elab(sd.body, locals_) if sd.body is not None else None
        ty, body = fold_telescope(tuple(telescope), inner_ty, inner_body)
        tag = {
            "def": DeclTag.DEFINITION,
            "postulate": DeclTag.AXIOM,
        }.get(sd.kind)
        if tag is None:
            tag = DeclTag.THEOREM_PROVED if sd.body is not None else DeclTag.THEOREM_STATED
        return Decl(sd.name, tag, tuple(telescope), inner_ty, inner_body, ty, body,
                    span=sd.span)

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

def elaborate_toplevels(items: list[STopLevel], env: GlobalEnv) -> list[Decl]:
    """Elaborate a parsed file against (and into) the global environment.
    Declarations become visible to later items as they are processed."""
    el = Elaborator(env)
    out: list[Decl] = []
    for item in items:
        if isinstance(item, SShapeDecl):
            env.add_shape(el.elab_shape_decl(item), item.span)
        else:
            d = el.elab_decl(item)
            env.add_decl(d)
            out.append(d)
    return out
