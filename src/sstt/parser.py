"""Surface syntax: lexer and recursive-descent parser.

The parser builds core terms, telescope parameters and declarations
directly, with a ``Var`` for every identifier; ``scope`` then resolves names
against the global environment and expands shapes.  What only the
environment can settle is left for scope in core form: a Π whose domain is
a bare name becomes an extension type if the name is a shape; an extension
type over a shape domain has no cube yet, and its shape tope is the
placeholder ``STShapeApp`` of that shape to the bound variable; the branches
of an extension type stay a tope case, under the boundary tope BOT, until
their topes are expanded.  A shape application in a tope is an
``STShapeApp``.  Anonymous binders (``A -> B``, ``A * B``) and the point of
a tuple-pattern lambda get fresh names; while the lambda's body is parsed,
its pattern names stand for the projections of that point.

Alternatives are chosen by lookahead, never by backtracking, with a table of
matching parentheses built once per input:

- ``(x : D)`` is a Π binder iff the token after its ``)`` is ``->``;
- a binder domain or parameter is a cube type iff its tokens up to ``)`` or
  ``|`` are only ``1``, ``2``, ``*`` and parentheses;
- a parenthesized tope is a relation iff ``<=`` or ``===`` follows its ``)``;
- an identifier in a tope starts a relation iff ``<=`` or ``===`` follows
  it, and applies a shape otherwise.

So every token is parsed once.  The grammar is documented in docs/syntax.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .core import (
    Ann,
    App,
    CubeLit,
    CubeParam,
    Decl,
    DeclTag,
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
    Span,
    TeleParam,
    TopeCase,
    TopeParam,
    TypedParam,
    U,
    UnitPoint,
    UnitType,
    Var,
    cube_to_term,
    fresh,
)
from .cube import (
    CFst,
    CPair,
    CSnd,
    CSTAR,
    CVar,
    CZERO,
    CONE,
    CubeExpr,
    CubeType,
    INTERVAL,
    ProdCube,
    UNIT_CUBE,
    split_point,
)
from .tope import BOT, TOP, Shape, TAnd, TEq, TLe, TOr, Tope


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "def", "postulate", "thm", "shape",
    "U", "Unit", "star", "fst", "snd", "Id", "refl", "J", "Sigma", "Pi",
    "TOP", "BOT",
}

PUNCT = [
    "|->", "|-", ":=", "===", "<=", "->", "/\\", "\\/",
    "(", ")", "{", "}", "[", "]", "<", ">", ",", ".", ":", "|", "*", "\\",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "kw", "num", or the punctuation itself; "eof"
    value: str
    start: int
    end: int
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


def lex(src: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, i, j, line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            word = src[i:j]
            if word not in ("0", "1", "2"):
                raise ParseError(f"unexpected number {word!r}", line, col, filename)
            toks.append(Token("num", word, i, j, line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                toks.append(Token(p, p, i, i + len(p), line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col, filename)
    toks.append(Token("eof", "", n, n, line, col))
    return toks


# ---------------------------------------------------------------------------
# Tope placeholder

@dataclass(frozen=True)
class STShapeApp:
    """Unresolved shape applied to a cube point, in tope position."""

    name: str
    arg: CubeExpr
    span: Optional[Span] = field(default=None, compare=False, repr=False)


STope = Union[Tope, STShapeApp]  # shape apps may also sit under TAnd/TOr


# ---------------------------------------------------------------------------
# Parser

def _matching_parens(toks: list[Token]) -> dict[int, int]:
    """The index of the ``)`` closing each ``(``; an unbalanced one has none."""
    close: dict[int, int] = {}
    opened: list[int] = []
    for i, t in enumerate(toks):
        if t.kind == "(":
            opened.append(i)
        elif t.kind == ")" and opened:
            close[opened.pop()] = i
    return close


class Parser:
    def __init__(self, src: str, filename: str = "<input>"):
        self.toks = lex(src, filename)
        self.pos = 0
        self.filename = filename
        self.close = _matching_parens(self.toks)
        # the names of the enclosing tuple-pattern lambdas, each mapped to a
        # projection of its lambda's point
        self.points: dict[str, CubeExpr] = {}

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if self.at(kind, value):
            return self.next()
        t = self.peek()
        want = value or kind
        got = t.value or t.kind
        raise ParseError(f"expected {want!r}, found {got!r}", t.line, t.col, self.filename)

    def fail(self, message: str) -> "ParseError":
        t = self.peek()
        return ParseError(message, t.line, t.col, self.filename)

    def span_from(self, start: Token) -> Span:
        end = self.toks[max(self.pos - 1, 0)]
        return Span(start.start, end.end)

    # -- lookahead

    def after_group(self, *kinds: str) -> bool:
        """Whether the token after the ``)`` closing the ``(`` here is one of
        ``kinds``."""
        j = self.close.get(self.pos)
        return j is not None and self.toks[j + 1].kind in kinds

    def cube_ahead(self) -> bool:
        """Whether the tokens from here up to the enclosing ``)`` or a ``|``
        are only ``1``, ``2``, ``*`` and parentheses, as in a cube type."""
        i, depth = self.pos, 0
        while True:
            t = self.toks[i]
            if t.kind == "(":
                depth += 1
            elif t.kind == ")":
                if depth == 0:
                    break
                depth -= 1
            elif t.kind == "|" and depth == 0:
                break
            elif t.kind != "*" and not (t.kind == "num" and t.value != "0"):
                return False
            i += 1
        return i > self.pos

    def hide(self, name: str) -> dict[str, CubeExpr]:
        """Stop replacing ``name``, which a binder rebinds; returns the
        replacements to restore at the end of the binder's scope."""
        saved = self.points
        if name in saved:
            self.points = {k: v for k, v in saved.items() if k != name}
        return saved

    # -- top level

    def parse_file(self) -> list[Union[Decl, Shape]]:
        out: list[Union[Decl, Shape]] = []
        seen: set[str] = set()
        while not self.at("eof"):
            d = self.parse_toplevel()
            if d.name in seen:
                raise ParseError(
                    f"duplicate declaration of {d.name!r}",
                    self.toks[self.pos - 1].line, self.toks[self.pos - 1].col,
                    self.filename,
                )
            seen.add(d.name)
            out.append(d)
        return out

    def parse_toplevel(self) -> Union[Decl, Shape]:
        t = self.peek()
        if self.accept("kw", "shape"):
            return self.parse_shape_decl(t)
        for kw in ("def", "postulate", "thm"):
            if self.accept("kw", kw):
                return self.parse_decl(kw, t)
        raise self.fail("expected a declaration (def, postulate, thm, or shape)")

    def parse_shape_decl(self, start: Token) -> Shape:
        name = self.expect("ident").value
        self.expect(":=")
        self.expect("{")
        if self.accept("("):
            pats = [self.expect("ident").value]
            while self.accept(","):
                pats.append(self.expect("ident").value)
            self.expect(")")
            pattern = tuple(pats)
        else:
            pattern = (self.expect("ident").value,)
        self.expect(":")
        cube = self.parse_cube_type()
        self.expect("|")
        tope = self.parse_tope()
        self.expect("}")
        return Shape(name, pattern, cube, tope, span=self.span_from(start))

    def parse_decl(self, kind: str, start: Token) -> Decl:
        name = self.expect("ident").value
        params: list[TeleParam] = []
        while self.at("(") or self.at("{"):
            params.extend(self.parse_param())
        self.expect(":")
        ty = self.parse_expr()
        body: Optional[Expr] = None
        if kind == "def":
            self.expect(":=")
            body, tag = self.parse_expr(), DeclTag.DEFINITION
        elif kind == "postulate":
            tag = DeclTag.AXIOM
        elif self.accept(":="):
            body, tag = self.parse_expr(), DeclTag.THEOREM_PROVED
        else:
            tag = DeclTag.THEOREM_STATED
        return Decl(name, tag, tuple(params), ty, body, span=self.span_from(start))

    def parse_param(self) -> list[TeleParam]:
        start = self.peek()
        if self.accept("{"):
            tope = self.parse_tope()
            self.expect("}")
            return [TopeParam(tope, span=self.span_from(start))]
        self.expect("(")
        names = [self.expect("ident").value]
        while self.at("ident"):
            names.append(self.next().value)
        self.expect(":")
        if self.cube_ahead():
            cube = self.parse_cube_type()
            self.expect(")")
            span = self.span_from(start)
            return [CubeParam(n, cube, span=span) for n in names]
        # the names of a group share one type, which scope resolves before
        # binding any of them
        ty = self.parse_expr()
        self.expect(")")
        span = self.span_from(start)
        return [TypedParam(n, ty, span=span) for n in names]

    # -- cube types

    def parse_cube_type(self) -> CubeType:
        left = self.parse_cube_type_atom()
        if self.accept("*"):
            return ProdCube(left, self.parse_cube_type())
        return left

    def parse_cube_type_atom(self) -> CubeType:
        if self.accept("num", "2"):
            return INTERVAL
        if self.accept("num", "1"):
            return UNIT_CUBE
        if self.accept("("):
            t = self.parse_cube_type()
            self.expect(")")
            return t
        raise self.fail("expected a cube type (1, 2, or a product)")

    def parse_cube_domain(self, var: str) -> tuple[CubeType, STope]:
        """``C`` or ``C | psi``, where ``psi`` may mention the bound ``var``."""
        cube = self.parse_cube_type()
        if not self.accept("|"):
            return cube, TOP
        saved = self.hide(var)
        psi = self.parse_tope()
        self.points = saved
        return cube, psi

    # -- cube expressions

    def parse_cube_expr(self) -> CubeExpr:
        return self.parse_cube_atom()

    def parse_cube_atom(self) -> CubeExpr:
        if self.accept("num", "0"):
            return CZERO
        if self.accept("num", "1"):
            return CONE
        if self.accept("kw", "star"):
            return CSTAR
        if self.accept("kw", "fst"):
            return CFst(self.parse_cube_atom())
        if self.accept("kw", "snd"):
            return CSnd(self.parse_cube_atom())
        if self.at("ident"):
            name = self.next().value
            point = self.points.get(name)
            return CVar(name) if point is None else point
        if self.accept("("):
            e = self.parse_cube_expr()
            while self.accept(","):
                e = CPair(e, self.parse_cube_expr())
            self.expect(")")
            return e
        raise self.fail("expected a cube point")

    # -- topes

    def parse_tope(self) -> STope:
        left = self.parse_tope_conj()
        while self.accept("\\/"):
            left = TOr(left, self.parse_tope_conj())
        return left

    def parse_tope_conj(self) -> STope:
        left = self.parse_tope_atom()
        while self.accept("/\\"):
            left = TAnd(left, self.parse_tope_atom())
        return left

    def parse_tope_atom(self) -> STope:
        if self.accept("kw", "TOP"):
            return TOP
        if self.accept("kw", "BOT"):
            return BOT
        if self.at("(") and not self.after_group("<=", "==="):
            self.next()
            t = self.parse_tope()
            self.expect(")")
            return t
        if self.at("ident") and self.peek(1).kind not in ("<=", "==="):
            tok = self.next()
            arg = self.parse_cube_atom()
            return STShapeApp(tok.value, arg, span=self.span_from(tok))
        return self.parse_tope_relation()

    def parse_tope_relation(self) -> Tope:
        a = self.parse_cube_expr()
        if self.accept("<="):
            return TLe(a, self.parse_cube_expr())
        self.expect("===")
        return TEq(a, self.parse_cube_expr())

    # -- expressions

    def parse_expr(self) -> Expr:
        start = self.peek()
        if self.accept("\\"):
            return self.parse_lambda(start)
        return self.parse_arrow()

    def parse_lambda(self, start: Token) -> Expr:
        if self.accept("("):
            names = [self.expect("ident").value]
            while self.accept(","):
                names.append(self.expect("ident").value)
            self.expect(")")
        else:
            names = [self.expect("ident").value]
        self.expect(".")
        saved = self.points
        if len(names) == 1:
            var = names[0]
            self.hide(var)
        else:
            var = fresh("p")
            comps = split_point(CVar(var), len(names))
            self.points = {**saved, **dict(zip(names, comps))}
        body = self.parse_expr()
        self.points = saved
        return Lam(var, body, span=self.span_from(start))

    def parse_arrow(self) -> Expr:
        start = self.peek()
        if (self.at("(") and self.peek(1).kind == "ident"
                and self.peek(2).kind == ":" and self.after_group("->")):
            return self.parse_pi_binder(start)
        left = self.parse_sigma_op()
        if self.accept("->"):
            return Pi(fresh("x"), left, self.parse_arrow(), span=self.span_from(start))
        return left

    def parse_pi_binder(self, start: Token) -> Expr:
        """``(x : D) -> B``.  A cube domain makes an extension type with an
        empty boundary; any other domain a Π, which scope turns into an
        extension type if the domain names a shape."""
        self.expect("(")
        var = self.next().value
        self.expect(":")
        cube: Optional[CubeType] = None
        if self.cube_ahead():
            cube, psi = self.parse_cube_domain(var)
        else:
            dom = self.parse_expr()
        self.expect(")")
        self.expect("->")
        saved = self.hide(var)
        cod = self.parse_arrow()
        self.points = saved
        if cube is not None:
            return Ext(var, cube, psi, cod, BOT, TopeCase(()), span=self.span_from(start))
        return Pi(var, dom, cod, span=self.span_from(start))

    def parse_sigma_op(self) -> Expr:
        start = self.peek()
        left = self.parse_app()
        if self.accept("*"):
            return Sigma(fresh("x"), left, self.parse_sigma_op(), span=self.span_from(start))
        return left

    def parse_app(self) -> Expr:
        start = self.peek()
        head = self.parse_prefix()
        while self.starts_atom():
            arg = self.parse_prefix()
            head = App(head, arg, span=self.span_from(start))
        return head

    def starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("ident", "num"):
            return True
        if t.kind == "kw":
            return t.value in ("U", "Unit", "star", "fst", "snd", "Id", "refl",
                              "J", "Sigma")
        # "[" deliberately does not start an application argument: a
        # tope-case used as an argument must be parenthesized, which keeps
        # extension-type boundaries unambiguous
        return t.kind in ("(", "<")

    def parse_prefix(self) -> Expr:
        """An atom possibly led by one of the prefix operators."""
        start = self.peek()
        if self.accept("kw", "fst"):
            return Fst(self.parse_prefix(), span=self.span_from(start))
        if self.accept("kw", "snd"):
            return Snd(self.parse_prefix(), span=self.span_from(start))
        if self.accept("kw", "Id"):
            ty = self.parse_atom()
            lhs = self.parse_atom()
            rhs = self.parse_atom()
            return IdT(ty, lhs, rhs, span=self.span_from(start))
        if self.accept("kw", "refl"):
            arg = self.parse_atom() if self.starts_atom() else None
            return Refl(arg, span=self.span_from(start))
        if self.accept("kw", "J"):
            motive = self.parse_atom()
            base = self.parse_atom()
            path = self.parse_atom()
            return J(motive, base, path, span=self.span_from(start))
        if self.accept("kw", "Sigma"):
            self.expect("(")
            var = self.expect("ident").value
            self.expect(":")
            dom = self.parse_expr()
            self.expect(")")
            saved = self.hide(var)
            body = self.parse_app()
            self.points = saved
            return Sigma(var, dom, body, span=self.span_from(start))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        start = self.peek()
        if self.accept("kw", "U"):
            return U(span=start.span)
        if self.accept("kw", "Unit"):
            return UnitType(span=start.span)
        if self.accept("kw", "star"):
            return UnitPoint(span=start.span)
        if self.at("num"):
            t = self.next()
            if t.value == "2":
                raise ParseError("the interval is not a term", t.line, t.col, self.filename)
            return CubeLit(CONE if t.value == "1" else CZERO, span=t.span)
        if self.at("ident"):
            t = self.next()
            point = self.points.get(t.value)
            return Var(t.value, span=t.span) if point is None else cube_to_term(point)
        if self.at("<"):
            return self.parse_ext(start)
        if self.at("["):
            return self.parse_tope_case(start)
        if self.accept("("):
            if self.at("\\"):
                self.next()
                e = self.parse_lambda(start)
            else:
                e = self.parse_expr()
            if self.accept(","):
                snd = self.parse_expr()
                self.expect(")")
                return Pair(e, snd, span=self.span_from(start))
            if self.accept(":"):
                ty = self.parse_expr()
                self.expect(")")
                return Ann(e, ty, span=self.span_from(start))
            self.expect(")")
            return e
        raise self.fail("expected an expression")

    def parse_ext(self, start: Token) -> Expr:
        """``<Pi (t : D) -> F [branches]>``, its branches kept as a tope case
        whose topes scope expands; scope also makes the boundary tope."""
        self.expect("<")
        self.expect("kw", "Pi")
        self.expect("(")
        var = self.expect("ident").value
        self.expect(":")
        cube: Optional[CubeType] = None
        if self.cube_ahead():
            cube, psi = self.parse_cube_domain(var)
        elif self.at("ident"):
            psi = STShapeApp(self.next().value, CVar(var))
        else:
            raise self.fail("an extension type needs a cube or shape domain")
        self.expect(")")
        self.expect("->")
        saved = self.hide(var)
        family = self.parse_sigma_op()
        self.expect("[")
        branches = () if self.at("]") else self.parse_branches()
        self.expect("]")
        self.points = saved
        self.expect(">")
        return Ext(var, cube, psi, family, BOT, TopeCase(branches),
                   span=self.span_from(start))

    def parse_tope_case(self, start: Token) -> Expr:
        self.expect("[")
        branches: tuple[tuple[STope, Expr], ...] = ()
        if not self.at("]"):
            branches = self.parse_branches()
        self.expect("]")
        return TopeCase(branches, span=self.span_from(start))

    def parse_branches(self) -> tuple[tuple[STope, Expr], ...]:
        out = []
        while True:
            tope = self.parse_tope()
            self.expect("|->")
            body = self.parse_expr()
            out.append((tope, body))
            if not self.accept("|"):
                break
        return tuple(out)


# ---------------------------------------------------------------------------
# Entry points

def parse_file(src: str, filename: str = "<input>") -> list[Union[Decl, Shape]]:
    """Parse a file into its declarations and shapes, with names unresolved."""
    return Parser(src, filename).parse_file()


def parse_expr(src: str, filename: str = "<input>") -> Expr:
    p = Parser(src, filename)
    e = p.parse_expr()
    p.expect("eof")
    return e


def parse_sequent_source(src: str, filename: str = "<sequent>"):
    """Parse ``x : 2, y : 2 | hyp |- goal`` into a tope sequent.

    The context lists cube variables; the hypothesis and goal are topes
    (shape applications are not allowed here)."""
    from .tope import Sequent

    p = Parser(src, filename)
    ctx: list[tuple[str, CubeType]] = []
    if not p.at("|"):
        while True:
            name = p.expect("ident").value
            p.expect(":")
            cube = p.parse_cube_type()
            ctx.append((name, cube))
            if not p.accept(","):
                break
    p.expect("|")
    hyp = p.parse_tope()
    p.expect("|-")
    goal = p.parse_tope()
    p.expect("eof")
    for t in (hyp, goal):
        _reject_shape_apps(t, p)
    return Sequent(tuple(ctx), hyp, goal)


def _reject_shape_apps(t: STope, p: Parser) -> None:
    match t:
        case STShapeApp(name, _):
            raise ParseError(f"unknown tope form {name!r}", 1, 1, p.filename)
        case TAnd(a, b) | TOr(a, b):
            _reject_shape_apps(a, p)
            _reject_shape_apps(b, p)
        case _:
            pass
