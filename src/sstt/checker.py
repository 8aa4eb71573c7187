"""Bidirectional type checker for the three-layer language.

Checking elaborates as it goes: applications of extension-typed functions
become explicit cube applications, and bare ``refl`` is annotated with its
endpoint.  Reduction (``whnf``) therefore never has to guess the sort of a
binder.  Elaboration keeps sharing: ``check``, ``infer`` and
``check_decl`` hand back the input node when they changed none of its
children, so a term that needs no elaboration comes back as itself.

Reduction is an environment machine.  It walks the head of a term with a
pending ``core.Subst`` of typed values and cube points, and an explicit
stack of the eliminations around the head (application, cube application,
projections, ``J``).  A β-step or an extension β-step only extends the
substitution, and unfolding a definition starts afresh on its closed body.
The substitution is applied once, to the head where reduction stops, and
the stack is then rebuilt around it; an argument met under a non-empty
substitution is closed when it is pushed.  A Π, Σ or extension type at the
head keeps its substitution pending, as a closure: checking a λ or a pair
against it, comparing at it and eliminating with it instantiate its binder
by extending that substitution, and close only the part they look at.
``whnf`` closes the whole head.  A case split none of whose branches the
context entails is stuck, and eliminations pending on it go into every
branch: ``[φ |-> f | ψ |-> g] a`` becomes ``[φ |-> f a | ψ |-> g a]``.

``check`` takes the expected type apart only for a λ, a pair or ``refl``.
Any other term has its type inferred and compared with the expected type as
written, which is reduced only to print a mismatch.  The reduction
machine, ``check``, ``infer`` and ``_equal_structural`` pick a term's case
by its class: the first three test the common classes first, and the last
dispatches through a table.  The universe as a type is one shared node,
``core.UNIVERSE``.

One step, ``_elim``, types an application, a cube application or a
projection, with the type's substitution kept pending.  Inference walks an
elimination spine ``f a1 ... an`` with it, checking each argument against
its domain and instantiating the final type once.  The comparison of two
neutral spines and boundary reduction use the same step without checking
anything again: a stuck neutral's type is read off its spine, from the
type of its head in the context or the environment.

No context binds a name twice: a binder whose name it binds already is
renamed first, to the first ``name$k`` it does not bind.

Equality is tope-aware.  Two α-equal terms are equal at once, in any
context (``core.alpha_eq`` tries ``==`` first), and ``Checker.equal``
decides itself that an inconsistent context makes all terms equal, so no
caller asks first.  Conversion splits only on case splits, which their
branches determine: a side that is a case split, or a type that reduces to
one, is compared branch by branch, and anything else under the whole
context.  Two cube points are equal when they lie in the same cube and the
context entails their equality.  Every entailment goes through
``Checker.entails_ctx`` and its cache.  Pi, Sigma and extension types all
enjoy eta: at each, two terms are compared through their eliminations,
whatever their form.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import (
    Ann,
    App,
    Const,
    CubeLit,
    CubeParam,
    Decl,
    EMPTY,
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
    Span,
    Subst,
    TopeCase,
    TopeParam,
    TriContext,
    TypedParam,
    U,
    UNIVERSE,
    UnitPoint,
    UnitType,
    Var,
    alpha_eq,
    rename_binder,
    subst_typed,
)
from .cube import (
    CPair,
    CFst,
    CSnd,
    CSTAR,
    CubeError,
    CubeExpr,
    CVar,
    Node,
    cube_type_of,
    display_name,
    print_cube_type,
)
from .printer import print_expr
from .scope import GlobalEnv
from .tope import (
    BOT,
    Sequent,
    TEq,
    Tope,
    TopeError,
    TopeTooLargeError,
    entails,
    normalize_tope,
    print_tope,
    tope_and,
    tope_or,
)

DIAGNOSTIC_KINDS = (
    "parse",
    "scope",
    "type-mismatch",
    "tope-unsolved",
    "boundary",
    "fuel",
    "unledgered-axiom",
    "tope-too-large",
    "too-deep",
    "internal",
)


class Diagnostic(Node):
    __slots__ = __match_args__ = ("kind", "message", "decl", "span")

    def __init__(self, kind: str, message: str, decl: Optional[str] = None,
                 span: Optional[Span] = None):
        if kind not in DIAGNOSTIC_KINDS:
            raise ValueError(f"unknown diagnostic kind: {kind!r}")
        self.kind = kind
        self.message = message
        self.decl = decl
        self.span = span
        self._hash = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "message": self.message}
        if self.decl is not None:
            out["decl"] = self.decl
        if self.span is not None:
            out["start"] = self.span.start
            out["end"] = self.span.end
        return out


class CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(f"{diagnostic.kind}: {diagnostic.message}")
        self.diagnostic = diagnostic


DEFAULT_FUEL = 10_000


class Checker:
    def __init__(self, env: GlobalEnv, fuel: int = DEFAULT_FUEL):
        self.env = env
        self.fuel = fuel
        self.steps = 0
        self.current_decl: Optional[str] = None
        # the sequents this checker decided, keyed as written
        self.entailed: dict[tuple, bool] = {}

    # -- plumbing

    def _err(self, kind: str, message: str, span: Optional[Span] = None):
        raise CheckError(Diagnostic(kind, message, self.current_decl, span))

    def _tick(self):
        self.steps += 1
        if self.steps > self.fuel:
            self._err(
                "fuel",
                f"reduction did not finish within {self.fuel} steps; "
                "the declaration may require a larger --fuel bound",
            )

    # -- tope layer access

    def entails_ctx(self, ctx: TriContext, goal: Tope) -> bool:
        key = (ctx.cube_vars, ctx.tope, goal)
        yes = self.entailed.get(key)
        if yes is None:
            try:
                yes = self.entailed[key] = bool(entails(Sequent(*key)))
            except TopeTooLargeError as e:
                self._err("tope-too-large", str(e))
        return yes

    def ctx_unsat(self, ctx: TriContext) -> bool:
        return self.entails_ctx(ctx, BOT)

    # -- cube embedding

    def as_cube_expr(self, ctx: TriContext, e: Expr) -> Optional[CubeExpr]:
        match e:
            case Var(n):
                return CVar(n) if ctx.lookup_cube(n) is not None else None
            case CubeLit(c):
                return c
            case UnitPoint():
                return CSTAR
            case Pair(a, b):
                ca, cb = self.as_cube_expr(ctx, a), self.as_cube_expr(ctx, b)
                return CPair(ca, cb) if ca is not None and cb is not None else None
            case Fst(a):
                ca = self.as_cube_expr(ctx, a)
                return CFst(ca) if ca is not None else None
            case Snd(a):
                ca = self.as_cube_expr(ctx, a)
                return CSnd(ca) if ca is not None else None
            case _:
                return None

    # -- reduction

    def whnf(self, ctx: TriContext, e: Expr, unfold: bool = True) -> Expr:
        """Weak head normal form, by the environment machine described in
        the module docstring."""
        w, sub = self._reduce(ctx, e, unfold=unfold)
        return sub.close(w)

    def _reduce(self, ctx: TriContext, e: Expr, env: Subst = EMPTY,
                unfold: bool = True) -> tuple[Expr, Subst]:
        """``e`` under ``env`` in weak head form.  A Π, Σ or extension type at
        the head is returned with its substitution still pending."""
        stack: list[tuple[str, object]] = []  # innermost elimination last
        while True:
            cls = e.__class__
            if cls is Pi or cls is Sigma or cls is Ext:
                if not stack:
                    return e, env
            elif cls is App:
                stack.append(("app", env.close(e.arg)))
                e = e.fn
                continue
            elif cls is Lam:
                if stack and stack[-1][0] in ("app", "ext"):
                    kind, arg = stack.pop()
                    self._tick()
                    env = env.bind(e.var, arg) if kind == "app" else env.bind_point(e.var, arg)
                    e = e.body
                    continue
            elif cls is Const:
                d = self.env.decls.get(e.name) if unfold else None
                if d is not None and d.body is not None:
                    self._tick()
                    e, env = d.body, EMPTY
                    continue
            elif cls is Var:
                n = e.name
                if n in env.values or n in env.points:
                    e, env = env.lookup(n), EMPTY
                    continue
            elif cls is ExtApp:
                stack.append(("ext", env.point(e.arg)))
                e = e.fn
                continue
            elif cls is Fst or cls is Snd:
                stack.append(("fst" if cls is Fst else "snd", None))
                e = e.arg
                continue
            elif cls is TopeCase:
                taken = next((body for t, body in e.branches
                              if self.entails_ctx(ctx, env.tope(t))), None)
                if taken is not None:
                    self._tick()
                    e = taken
                    continue
            elif cls is Pair:
                if stack and stack[-1][0] in ("fst", "snd"):
                    kind, _ = stack.pop()
                    self._tick()
                    e = e.fst if kind == "fst" else e.snd
                    continue
            elif cls is J:
                stack.append(("j", (env.close(e.motive), env.close(e.base))))
                e = e.path
                continue
            elif cls is Refl:
                if e.arg is not None and stack and stack[-1][0] == "j":
                    _, (_, d) = stack.pop()
                    self._tick()
                    stack.append(("app", env.close(e.arg)))
                    e, env = d, EMPTY
                    continue
            elif cls is Ann:
                e = e.expr
                continue
            e, env = env.close(e), EMPTY
            while stack:
                frame = stack.pop()
                if frame[0] == "ext":
                    r = self._boundary_reduce(ctx, e, frame[1])
                    if r is not None:
                        self._tick()
                        e = r
                        break
                e = _eliminate(e, frame)
            else:
                return e, env

    def _boundary_reduce(self, ctx: TriContext, neutral: Expr,
                         c: CubeExpr) -> Optional[Expr]:
        """Reduce an application of a neutral extension-typed term at a point
        of its boundary sub-shape."""
        typed = self._neutral_type(ctx, neutral)
        if typed is None:
            return None
        w, sub = self._reduce(ctx, *typed)
        if not isinstance(w, Ext):
            return None
        sub = sub.bind_point(w.var, c)
        if not self.entails_ctx(ctx, sub.tope(w.boundary_tope)):
            return None
        return sub.close(w.boundary)

    # -- equality

    def equal(self, ctx: TriContext, a: Expr, b: Expr,
              ty: Optional[Expr] = None) -> bool:
        if alpha_eq(a, b):  # convertible in every context
            return True
        if self.ctx_unsat(ctx):  # any two terms are equal under a contradiction
            return True
        if a.__class__ is TopeCase or b.__class__ is TopeCase:
            return self._equal_split_case(ctx, a, b, ty)
        a1 = self.whnf(ctx, a, unfold=False)
        b1 = self.whnf(ctx, b, unfold=False)
        if self._alpha_mod_cube(ctx, a1, b1):
            return True
        spine = self._equal_spines(ctx, a1, b1)
        if spine is not None:
            return spine
        a2 = self.whnf(ctx, a1)
        b2 = self.whnf(ctx, b1)
        if self._alpha_mod_cube(ctx, a2, b2):
            return True
        if a2.__class__ is TopeCase or b2.__class__ is TopeCase:
            return self._equal_split_case(ctx, a2, b2, ty)
        if ty is not None:
            r = self._equal_at_type(ctx, a2, b2, ty)
            if r is not None:
                return r
        spine = self._equal_spines(ctx, a2, b2)
        if spine is not None:
            return spine
        return self._equal_structural(ctx, a2, b2)

    def _alpha_mod_cube(self, ctx: TriContext, a: Expr, b: Expr) -> bool:
        if alpha_eq(a, b):
            return True
        ca, cb = self.as_cube_expr(ctx, a), self.as_cube_expr(ctx, b)
        return ca is not None and cb is not None and self._points_equal(ctx, ca, cb)

    def _points_equal(self, ctx: TriContext, a: CubeExpr, b: CubeExpr) -> bool:
        """Two points are equal when they lie in the same cube and the
        context entails their equality, which the solver splits into
        components."""
        cubes = ctx.cube_context()
        return (cube_type_of(cubes, a) == cube_type_of(cubes, b)
                and self.entails_ctx(ctx, TEq(a, b)))

    def _equal_split_case(self, ctx: TriContext, a: Expr, b: Expr,
                          ty: Optional[Expr]) -> bool:
        """A case split, ``a`` or else ``b``, equals the other side iff each
        branch body does under the branch's tope (the branches cover the context)."""
        case, other = (a, b) if a.__class__ is TopeCase else (b, a)
        return all(self.equal(ctx.bind_tope(t), body, other, ty)
                   for t, body in case.branches)

    def _equal_at_type(self, ctx: TriContext, a: Expr, b: Expr,
                       ty: Expr) -> Optional[bool]:
        w, sub = self._reduce(ctx, ty)
        match w:
            case UnitType():
                return True
            case Pi(x, dom, cod):
                v = ctx.fresh(x)
                ctx2 = ctx.bind_typed(v, sub.close(dom))
                return self.equal(
                    ctx2,
                    App(a, Var(v)),
                    App(b, Var(v)),
                    sub.bind(x, Var(v)).close(cod),
                )
            case Sigma(x, fst_ty, snd_ty):
                if not self.equal(ctx, Fst(a), Fst(b), sub.close(fst_ty)):
                    return False
                return self.equal(
                    ctx, Snd(a), Snd(b), sub.bind(x, Fst(a)).close(snd_ty))
            case Ext(t, cube, psi, fam, _, _):
                v = ctx.fresh(t)
                sub = sub.bind_point(t, CVar(v))
                ctx2 = ctx.bind_cube(v, cube).bind_tope(sub.tope(psi))
                return self.equal(
                    ctx2,
                    ExtApp(a, CVar(v)),
                    ExtApp(b, CVar(v)),
                    sub.close(fam),
                )
            case TopeCase(branches):  # a stuck case split of types
                return all(self.equal(ctx.bind_tope(t), a, b, body) for t, body in branches)
            case _:
                return None

    def _spine(self, e: Expr) -> tuple[Expr, list[Expr]]:
        """The head of an elimination spine and its eliminations (application,
        cube application, projections), innermost first.  A literal β-redex
        counts as a head."""
        spine = []
        while (isinstance(e, (ExtApp, Fst, Snd))
               or isinstance(e, App) and not isinstance(e.fn, Lam)):
            spine.append(e)
            e = e.fn if isinstance(e, (App, ExtApp)) else e.arg
        spine.reverse()
        return e, spine

    def _head_type(self, ctx: TriContext, head: Expr) -> Optional[Expr]:
        """The type of the head of a neutral term, read off the context, the
        environment or, for a stuck ``J``, the type of its path; None when
        the head has none of these."""
        match head:
            case Var(n):
                return ctx.lookup_typed(n)
            case Const(n) if n in self.env.decls:
                return self.env.decls[n].ty
            case J(c, _, p):
                path = self._neutral_type(ctx, p)
                w = path and self._reduce(ctx, *path)[0]
                if isinstance(w, IdT):
                    return App(App(App(c, w.lhs), w.rhs), p)
        return None

    def _neutral_type(self, ctx: TriContext, e: Expr) -> Optional[tuple[Expr, Subst]]:
        """The type of a neutral term, read off its spine without checking
        the arguments again, with its substitution still pending."""
        head, spine = self._spine(e)
        ty = self._head_type(ctx, head)
        if ty is None:
            return None
        term, sub = head, EMPTY
        for node in spine:
            step = self._elim(ctx, term, ty, sub, node)
            if step is None:
                return None
            term, ty, sub = step
        return ty, sub

    def _elim(self, ctx: TriContext, term: Expr, ty: Expr, sub: Subst, node: Expr,
              check: bool = False) -> Optional[tuple[Expr, Expr, Subst]]:
        """Eliminate ``term``, of type ``ty`` under the pending ``sub``, by
        ``node``, an application, cube application or projection of it.
        Returns the eliminated term, its type and the substitution pending on
        that type.  With ``check`` the argument is checked, and elaborated,
        against the domain, an application of an extension-typed function
        becomes a cube application, and a mismatch is an error; without it a
        mismatch gives None."""
        w, sub = self._reduce(ctx, ty, sub)
        if isinstance(node, App) and isinstance(w, Pi):
            a = self.check(ctx, node.arg, sub.close(w.dom)) if check else node.arg
            if term is not node.fn or a is not node.arg:
                node = App(term, a, span=node.span)
            return node, w.cod, sub.bind(w.var, a)
        if isinstance(w, Ext) and (isinstance(node, ExtApp) or check and isinstance(node, App)):
            c = node.arg if isinstance(node, ExtApp) else self.as_cube_expr(ctx, node.arg)
            if c is None:
                self._err(
                    "type-mismatch",
                    "this function takes a point of a cube, but the argument "
                    f"is {print_expr(node.arg)}", node.span)
            if check:
                self._check_cube_arg(ctx, w, sub, c, node.span)
            if node.__class__ is not ExtApp or term is not node.fn:
                node = ExtApp(term, c, span=node.span)
            return node, w.family, sub.bind_point(w.var, c)
        if isinstance(node, (Fst, Snd)) and isinstance(w, Sigma):
            if term is not node.arg:
                node = node.__class__(term, span=node.span)
            if node.__class__ is Fst:
                return node, w.fst_ty, sub
            return node, w.snd_ty, sub.bind(w.var, Fst(term))
        if not check:
            return None
        what = ("first projection of" if isinstance(node, Fst) else
                "second projection of" if isinstance(node, Snd) else "cannot apply")
        to_point = " to a cube point" if isinstance(node, ExtApp) else ""
        self._err("type-mismatch",
                  f"{what} a term of type {print_expr(sub.close(w))}{to_point}", node.span)

    def _equal_spines(self, ctx: TriContext, a: Expr, b: Expr) -> Optional[bool]:
        """Compare two neutral spines with the same rigid head, argument by
        argument at the types the head demands.  Returns None when the
        comparison does not apply or is inconclusive (a definition head may
        still unfold to equal terms)."""
        ha, sa = self._spine(a)
        hb, sb = self._spine(b)
        if not (sa and sb and isinstance(ha, (Var, Const)) and isinstance(hb, (Var, Const))):
            return None

        def rigid(head) -> bool:  # a variable, or a constant that does not unfold
            d = self.env.decls.get(head.name) if isinstance(head, Const) else None
            return d is None or d.body is None

        inconclusive = False if rigid(ha) and rigid(hb) else None
        if ha != hb or len(sa) != len(sb):
            return inconclusive
        ty = self._head_type(ctx, ha)
        if ty is None:
            return None
        term, sub = ha, EMPTY
        for na, nb in zip(sa, sb):
            if type(na) is not type(nb):
                return inconclusive
            ty, sub = self._reduce(ctx, ty, sub)
            step = self._elim(ctx, term, ty, sub, na)
            if step is None:
                return None
            if isinstance(na, App):
                same = self.equal(ctx, na.arg, nb.arg, sub.close(ty.dom))
            else:
                same = not isinstance(na, ExtApp) or self._points_equal(ctx, na.arg, nb.arg)
            if not same:
                return inconclusive
            term, ty, sub = step
        return True

    def _equal_structural(self, ctx: TriContext, a: Expr, b: Expr) -> bool:
        """Compare two weak head forms node by node.  Sides of different
        classes differ: two terms that are α-equal or equal as cube points
        never get here."""
        if a.__class__ is not b.__class__:
            return False
        case = _STRUCTURAL.get(a.__class__)
        return case is not None and case(self, ctx, a, b)

    def _equal_binder(self, ctx: TriContext, a: Union[Pi, Sigma],
                      b: Union[Pi, Sigma]) -> bool:
        x, d1, c1 = a._key(a)
        y, d2, c2 = b._key(b)
        if not self.equal(ctx, d1, d2, UNIVERSE):
            return False
        v = ctx.fresh(x)
        ctx2 = ctx.bind_typed(v, d1)
        return self.equal(
            ctx2, subst_typed(c1, {x: Var(v)}), subst_typed(c2, {y: Var(v)}), UNIVERSE)

    def _equal_lam(self, ctx: TriContext, a: Lam, b: Lam) -> bool:
        # sort of the binder is unknown without a type; treat it as an opaque
        # typed variable
        v = ctx.fresh(a.var)
        ctx2 = ctx.bind_typed(v, None)
        return self.equal(
            ctx2, subst_typed(a.body, {a.var: Var(v)}), subst_typed(b.body, {b.var: Var(v)}))

    def _equal_ext(self, ctx: TriContext, a: Ext, b: Ext) -> bool:
        if a.cube != b.cube:
            return False
        v = ctx.fresh(a.var)
        sub_a = EMPTY.bind_point(a.var, CVar(v))
        sub_b = EMPTY.bind_point(b.var, CVar(v))
        psi_a, psi_b = sub_a.tope(a.shape_tope), sub_b.tope(b.shape_tope)
        ctx_v = ctx.bind_cube(v, a.cube)
        if not (self.entails_ctx(ctx_v.bind_tope(psi_a), psi_b)
                and self.entails_ctx(ctx_v.bind_tope(psi_b), psi_a)):
            return False
        ctx_psi = ctx_v.bind_tope(psi_a)
        fam_a, fam_b = sub_a.close(a.family), sub_b.close(b.family)
        if not self.equal(ctx_psi, fam_a, fam_b, UNIVERSE):
            return False
        phi_a, phi_b = sub_a.tope(a.boundary_tope), sub_b.tope(b.boundary_tope)
        if not (self.entails_ctx(ctx_psi.bind_tope(phi_a), phi_b)
                and self.entails_ctx(ctx_psi.bind_tope(phi_b), phi_a)):
            return False
        return self.equal(ctx_psi.bind_tope(phi_a), sub_a.close(a.boundary),
                          sub_b.close(b.boundary), fam_a)

    # -- inference

    def infer(self, ctx: TriContext, e: Expr) -> tuple[Expr, Expr]:
        cls = e.__class__
        if cls is App and e.fn.__class__ is not Lam or cls is ExtApp or cls is Fst or cls is Snd:
            return self._infer_spine(ctx, e)
        if cls is Var:
            n = e.name
            ty = ctx.lookup_typed(n)
            if ty is not None:
                return ty, e
            if ctx.lookup_cube(n) is not None:
                self._err(
                    "type-mismatch",
                    f"cube variable {display_name(n)!r} used where a term "
                    "of a type is expected", e.span)
            if ctx.has_typed(n):
                self._err(
                    "type-mismatch",
                    f"the type of {display_name(n)!r} is not known here", e.span)
            self._err("scope", f"unbound variable {display_name(n)!r}", e.span)
        if cls is Const:
            d = self.env.decls.get(e.name)
            if d is None:
                self._err("scope", f"unknown constant {e.name!r}", e.span)
            return d.ty, e
        match e:
            case U() | UnitType():
                return UNIVERSE, e
            case UnitPoint():
                return UnitType(), e
            case CubeLit(_):
                self._err(
                    "type-mismatch",
                    "a cube endpoint is not a term of a type on its own", e.span)
            case Ann(x, t):
                te = self.check(ctx, t, UNIVERSE)
                xe = self.check(ctx, x, te)
                return te, xe
            case Pi(x, dom, cod) | Sigma(x, dom, cod):
                if x in ctx.names():  # no context binds a name twice
                    return self.infer(ctx, rename_binder(e, ctx.fresh(x)))
                de = self.check(ctx, dom, UNIVERSE)
                ce = self.check(ctx.bind_typed(x, de), cod, UNIVERSE)
                if de is dom and ce is cod:
                    return UNIVERSE, e
                return UNIVERSE, type(e)(x, de, ce, span=e.span)
            case IdT(t, l, r):
                te = self.check(ctx, t, UNIVERSE)
                le = self.check(ctx, l, te)
                re = self.check(ctx, r, te)
                if te is t and le is l and re is r:
                    return UNIVERSE, e
                return UNIVERSE, IdT(te, le, re, span=e.span)
            case Ext(_, _, _, _, _, _):
                return UNIVERSE, self._check_ext_formation(ctx, e)
            case App(Lam(x, body), a):
                # a literal beta redex has no inferable head; reduce it
                # (such redexes arise from recorded refl endpoints)
                self._tick()
                return self.infer(ctx, subst_typed(body, {x: a}))
            case Refl(arg) if arg is not None:
                aty, ae = self.infer(ctx, arg)
                return IdT(aty, ae, ae), e if ae is arg else Refl(ae, span=e.span)
            case J():
                return self._infer_j(ctx, e)
            case _:
                self._err(
                    "type-mismatch",
                    f"cannot infer a type for {print_expr(e)}; "
                    "add an annotation", getattr(e, "span", None))

    def _infer_spine(self, ctx: TriContext, e: Expr) -> tuple[Expr, Expr]:
        """Infer an elimination spine ``f a1 ... an``.  The head's type is
        instantiated lazily: each domain when its argument is checked, the
        final type once."""
        head, spine = self._spine(e)
        ty, term = self.infer(ctx, head)
        sub = EMPTY
        for node in spine:
            term, ty, sub = self._elim(ctx, term, ty, sub, node, check=True)
        return sub.close(ty), term

    def _check_cube_arg(self, ctx: TriContext, w: Ext, sub: Subst, c: CubeExpr,
                        span: Optional[Span]) -> None:
        """Check that the point ``c`` lies in the shape of ``w`` (under the
        pending ``sub``)."""
        try:
            cty = cube_type_of(ctx.cube_context(), c)
        except CubeError as err:
            self._err("scope", str(err), span)
        if cty != w.cube:
            self._err(
                "type-mismatch",
                f"the point lives in cube {print_cube_type(cty)} "
                f"but the function expects {print_cube_type(w.cube)}",
                span,
            )
        psi_c = sub.bind_point(w.var, c).tope(w.shape_tope)
        if not self.entails_ctx(ctx, psi_c):
            self._err(
                "tope-unsolved",
                "the point is not provably inside the function's shape "
                f"(needed: {print_tope(normalize_tope(ctx.cube_context(), psi_c))})",
                span)

    def _infer_j(self, ctx: TriContext, e: J) -> tuple[Expr, Expr]:
        c, d, p = e.motive, e.base, e.path
        pty, pe = self.infer(ctx, p)
        w = self.whnf(ctx, pty)
        if not isinstance(w, IdT):
            self._err(
                "type-mismatch",
                f"path induction needs an identification, got {print_expr(w)}", e.span)
        a_ty, lhs, rhs = w.ty, w.lhs, w.rhs
        u, v, q = (ctx.fresh(b) for b in "uvq")
        motive_ty = Pi(u, a_ty, Pi(v, a_ty,
                       Pi(q, IdT(a_ty, Var(u), Var(v)), UNIVERSE)))
        ce = self.check(ctx, c, motive_ty)
        base_ty = Pi(u, a_ty, App(App(App(ce, Var(u)), Var(u)), Refl(Var(u))))
        de = self.check(ctx, d, base_ty)
        res = App(App(App(ce, lhs), rhs), pe)
        return res, e if ce is c and de is d and pe is p else J(ce, de, pe, span=e.span)

    def _check_ext_formation(self, ctx: TriContext, e: Ext) -> Expr:
        t = e.var
        if t in ctx.names():  # no context binds a name twice
            return self._check_ext_formation(ctx, rename_binder(e, ctx.fresh(t)))
        ctx_t = ctx.bind_cube(t, e.cube)
        self._well_formed(ctx_t, tope_and(e.shape_tope, e.boundary_tope), e.span)
        ctx_psi = ctx_t.bind_tope(e.shape_tope)
        fam = self.check(ctx_psi, e.family, UNIVERSE)
        if not self.entails_ctx(ctx_t.bind_tope(e.boundary_tope), e.shape_tope):
            self._err(
                "tope-unsolved",
                "the boundary sub-shape is not provably contained in the shape",
                e.span,
            )
        bd = self.check(ctx_t.bind_tope(e.boundary_tope), e.boundary, fam)
        if fam is e.family and bd is e.boundary:
            return e
        return Ext(t, e.cube, e.shape_tope, fam, e.boundary_tope, bd, span=e.span)

    def _well_formed(self, ctx: TriContext, t: Tope, span: Optional[Span]) -> None:
        """An ill-typed tope is a scope error."""
        try:
            normalize_tope(ctx.cube_context(), t)
        except TopeError as err:
            self._err("scope", str(err), span)

    def _check_tope_case(self, ctx: TriContext, e: TopeCase, ty: Expr) -> Expr:
        cover = tope_or(*(t for t, _ in e.branches))
        self._well_formed(ctx, cover, e.span)
        if not self.entails_ctx(ctx, cover):
            self._err(
                "tope-unsolved",
                "the case split does not cover its context "
                f"(needed: {print_tope(normalize_tope(ctx.cube_context(), cover))})",
                e.span)
        elaborated = []
        for t, body in e.branches:
            branch = ctx.bind_tope(t)
            if self.ctx_unsat(branch):
                elaborated.append((t, body))
                continue
            elaborated.append((t, self.check(branch, body, ty)))
        for i in range(len(elaborated)):
            for j in range(i + 1, len(elaborated)):
                ti, bi = elaborated[i]
                tj, bj = elaborated[j]
                if not self.equal(ctx.bind_tope(ti).bind_tope(tj), bi, bj, ty):
                    self._err(
                        "boundary",
                        "the branches of a case split disagree where "
                        f"{print_tope(ti)} and {print_tope(tj)} overlap", e.span)
        if all(b is body for (_, b), (_, body) in zip(elaborated, e.branches)):
            return e
        return TopeCase(tuple(elaborated), span=e.span)

    # -- checking

    def check(self, ctx: TriContext, e: Expr, ty: Expr) -> Expr:
        cls = e.__class__
        if cls is TopeCase:
            return self._check_tope_case(ctx, e, ty)
        if cls is Lam or cls is Pair or cls is Refl:  # these take the type apart
            w, sub = self._reduce(ctx, ty)
            if cls is Lam:
                return self._check_lam(ctx, e, w, sub)
            if cls is Pair:
                if w.__class__ is not Sigma:
                    self._err(
                        "type-mismatch",
                        f"a pair cannot have type {print_expr(sub.close(w))}", e.span)
                ae = self.check(ctx, e.fst, sub.close(w.fst_ty))
                be = self.check(ctx, e.snd, sub.bind(w.var, ae).close(w.snd_ty))
                return e if ae is e.fst and be is e.snd else Pair(ae, be, span=e.span)
            if w.__class__ is IdT:
                return self._check_refl(ctx, e, w)
        # compare with the expected type as written, reduced only to print a
        # mismatch
        ity, ee = self.infer(ctx, e)
        if not self.equal(ctx, ity, ty, UNIVERSE):
            self._err(
                "type-mismatch",
                f"expected a term of type {print_expr(self.whnf(ctx, ty))}, "
                f"found one of type {print_expr(ity)}", getattr(e, "span", None))
        return ee

    def _check_lam(self, ctx: TriContext, e: Lam, w: Expr, sub: Subst) -> Expr:
        if w.__class__ is not Pi and w.__class__ is not Ext:
            self._err(
                "type-mismatch",
                f"a function cannot have type {print_expr(sub.close(w))}", e.span)
        if e.var in ctx.names():  # no context binds a name twice
            e = rename_binder(e, ctx.fresh(e.var))
        x = e.var
        if w.__class__ is Pi:
            ctx2 = ctx.bind_typed(x, sub.close(w.dom))
            be = self.check(ctx2, e.body, sub.bind(w.var, Var(x)).close(w.cod))
            return e if be is e.body else Lam(x, be, span=e.span)
        sub = sub.bind_point(w.var, CVar(x))
        fam_x = sub.close(w.family)
        ctx2 = ctx.bind_cube(x, w.cube).bind_tope(sub.tope(w.shape_tope))
        be = self.check(ctx2, e.body, fam_x)
        phi_x = sub.tope(w.boundary_tope)
        if not self.equal(ctx2.bind_tope(phi_x), be, sub.close(w.boundary), fam_x):
            self._err(
                "boundary",
                "the function does not restrict to the required "
                f"boundary on {print_tope(phi_x)}", e.span)
        return e if be is e.body else Lam(x, be, span=e.span)

    def _check_refl(self, ctx: TriContext, e: Refl, w: IdT) -> Expr:
        a_ty, lhs, rhs = w.ty, w.lhs, w.rhs
        if not self.equal(ctx, lhs, rhs, a_ty):
            self._err(
                "type-mismatch",
                "reflexivity needs equal endpoints, but "
                f"{print_expr(lhs)} and {print_expr(rhs)} differ", e.span)
        if e.arg is not None:
            ae = self.check(ctx, e.arg, a_ty)
            if not self.equal(ctx, ae, lhs, a_ty):
                self._err(
                    "type-mismatch",
                    "the endpoint of refl does not match the "
                    "identification being proved", e.span)
        return e if e.arg is lhs else Refl(lhs, span=e.span)

    # -- declarations

    def check_decl(self, decl: Decl) -> Decl:
        self.current_decl = decl.name
        self.steps = 0
        ctx = TriContext()
        tele = []
        for p in decl.telescope:
            match p:
                case CubeParam(name, cube):
                    ctx = ctx.bind_cube(name, cube)
                case TopeParam(t):
                    ctx = ctx.bind_tope(t)
                case TypedParam(name, ty):
                    te = self.check(ctx, ty, UNIVERSE)
                    ctx = ctx.bind_typed(name, te)
                    if te is not ty:
                        p = TypedParam(name, te)
            tele.append(p)
        ity = self.check(ctx, decl.inner_ty, UNIVERSE)
        ibody = None
        if decl.inner_body is not None:
            ibody = self.check(ctx, decl.inner_body, ity)
        if (ity is decl.inner_ty and ibody is decl.inner_body
                and all(p is q for p, q in zip(tele, decl.telescope))):
            return decl
        return Decl(decl.name, decl.tag, tuple(tele), ity, ibody, span=decl.span)


def _eliminate(e: Expr, frame: tuple[str, object]) -> Expr:
    """``e`` under the elimination a frame of ``Checker._reduce``'s stack
    stands for; a stuck case split takes it into every branch."""
    kind, arg = frame
    if e.__class__ is TopeCase:
        return TopeCase(tuple((t, _eliminate(b, frame)) for t, b in e.branches), span=e.span)
    if kind == "app":
        return App(e, arg)
    if kind == "ext":
        return ExtApp(e, arg)
    if kind == "fst":
        return Fst(e)
    if kind == "snd":
        return Snd(e)
    return J(arg[0], arg[1], e)


# The cases of ``Checker._equal_structural``, by the class both sides share.
_STRUCTURAL = {
    Refl: lambda self, ctx, a, b: True,  # endpoints agree by typing
    Pair: lambda self, ctx, a, b: self.equal(ctx, a.fst, b.fst) and self.equal(ctx, a.snd, b.snd),
    Lam: Checker._equal_lam,
    IdT: lambda self, ctx, a, b: (self.equal(ctx, a.ty, b.ty, UNIVERSE)
                                  and self.equal(ctx, a.lhs, b.lhs, a.ty)
                                  and self.equal(ctx, a.rhs, b.rhs, a.ty)),
    Pi: Checker._equal_binder,
    Sigma: Checker._equal_binder,
    Ext: Checker._equal_ext,
    J: lambda self, ctx, a, b: (self.equal(ctx, a.motive, b.motive)
                                and self.equal(ctx, a.base, b.base)
                                and self.equal(ctx, a.path, b.path)),
    # neutral applications whose head is not a variable or a constant (a
    # stuck J, say) fall through the spine check
    App: lambda self, ctx, a, b: self.equal(ctx, a.fn, b.fn) and self.equal(ctx, a.arg, b.arg),
    ExtApp: lambda self, ctx, a, b: (self.equal(ctx, a.fn, b.fn)
                                     and self._points_equal(ctx, a.arg, b.arg)),
    Fst: lambda self, ctx, a, b: self.equal(ctx, a.arg, b.arg),
    Snd: lambda self, ctx, a, b: self.equal(ctx, a.arg, b.arg),
}
