"""Surface syntax: lexer and recursive-descent parser.

The parser reads a file in one pass into resolved core terms, telescope
parameters, declarations and shapes.  It takes the global environment
read-only, together with the items read so far from the same input, and
keeps one scope map from each bound name to its sort (``"cube"``,
``"typed"``, or ``"unknown"`` for a λ binder) or, for a name of a
tuple-pattern lambda, to the projection of the lambda's point it stands
for.  So names are resolved as they are read:

- an identifier becomes a local ``Var``, a ``Const`` (never of a statement
  without a proof), or a ``ScopeError``; a tuple-pattern name becomes its
  projection, with the span of its token;
- a Π, arrow or extension domain that names a shape becomes an extension
  type over that shape, with an empty boundary for Π and arrows;
- a shape applied in a tope is expanded, and a name in a tope must be a
  cube variable (or λ-bound) in scope;
- the layer order of a telescope, a shape's pattern and the
  well-formedness of a tope parameter or shape tope are checked as the
  parameter or shape ends, and a declaration or shape that redefines a
  global name is a ``ScopeError``.

Anonymous binders (``A -> B``, ``A * B``, ``S -> B`` over a shape) and the
point of a tuple-pattern lambda get the first ``name$k`` not in scope.
Errors are reported in reading order; ``scope.elaborate_toplevels`` then
adds a parsed file's items to the environment.

Alternatives are chosen by lookahead, never by backtracking, with a table of
matching parentheses built once per input:

- ``(x : D)`` is a Π binder iff the token after its ``)`` is ``->``;
- a binder domain or parameter is a cube type iff its tokens up to ``)`` or
  ``|`` are only ``1``, ``2``, ``*`` and parentheses;
- a Π or arrow domain is a shape iff it is a shape's name, possibly in
  parentheses, that no bound name hides;
- a parenthesized tope is a relation iff ``<=`` or ``===`` follows its ``)``;
- an identifier in a tope starts a relation iff it is a bound name or
  ``<=`` or ``===`` follows it, and applies a shape otherwise.

So every token is parsed once.  The grammar is documented in docs/syntax.md.
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
    CubeError,
    CubeExpr,
    CubeType,
    INTERVAL,
    Node,
    ProdCube,
    UNIT_CUBE,
    split_cube,
    split_point,
)
from .scope import GlobalEnv, ScopeError
from .tope import (
    BOT, TOP, Shape, TAnd, TEq, TLe, TOr, Tope, TopeError, normalize_tope, tope_or,
)


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


class Token(Node):
    # kind: "ident", "kw", "num", or the punctuation itself; "eof"
    __slots__ = __match_args__ = ("kind", "value", "start", "end", "line", "col")

    def __init__(self, kind: str, value: str, start: int, end: int, line: int, col: int):
        self.kind = kind
        self.value = value
        self.start = start
        self.end = end
        self.line = line
        self.col = col
        self._hash = None

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
# Parser

# What a bound name stands for: its sort ("cube", "typed", or "unknown" for a
# λ binder), or the projection of a tuple-pattern lambda's point
Bound = Union[str, CubeExpr]


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
    """``env`` None parses topes only, as in a sequent: no shape may be
    applied, and the solver checks the names."""

    def __init__(self, src: str, filename: str = "<input>",
                 env: Optional[GlobalEnv] = None,
                 scope: Optional[dict[str, Bound]] = None):
        toks = lex(src, filename)
        # two more ``eof`` tokens keep ``peek`` (2 ahead at most) in range
        self.toks = toks + [toks[-1]] * 2
        self.pos = 0
        self.filename = filename
        self.close = _matching_parens(self.toks)
        self.env = env
        self.scope: dict[str, Bound] = dict(scope or {})
        # the declarations and shapes read so far from this input
        self.items: dict[str, Union[Decl, Shape]] = {}

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

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

    def shape_ahead(self, stop: str) -> Optional[Shape]:
        """The shape named from here, possibly in parentheses, if ``stop``
        follows the name and no bound name hides it; the shape is then
        consumed up to ``stop``."""
        toks, i = self.toks, self.pos
        while toks[i].kind == "(":
            i += 1
        j = 2 * i - self.pos + 1  # the token after the closing parentheses
        name = toks[i]
        if (name.kind != "ident" or j >= len(toks) or toks[j].kind != stop
                or any(t.kind != ")" for t in toks[i + 1:j])
                or name.value in self.scope):
            return None
        sh = self.global_(name.value)
        if not isinstance(sh, Shape):
            return None
        self.pos = j
        return sh

    # -- names

    def global_(self, name: str) -> Union[Decl, Shape, None]:
        """The declaration or shape called ``name``: one read earlier from
        this input, or one of the environment."""
        item = self.items.get(name)
        if item is None:
            item = self.env.decls.get(name) or self.env.shapes.get(name)
        return item

    def term_name(self, t: Token) -> Expr:
        bound = self.scope.get(t.value)
        if isinstance(bound, str):
            return Var(t.value, span=t.span)
        if bound is not None:
            return cube_to_term(bound, t.span)
        item = self.global_(t.value)
        if isinstance(item, Decl):
            if item.tag == DeclTag.THEOREM_STATED:
                raise ScopeError(
                    f"{t.value!r} is a statement without a proof and cannot be used",
                    t.span)
            return Const(t.value, span=t.span)
        if item is not None:
            raise ScopeError(f"shape {t.value!r} used as a term", t.span)
        raise ScopeError(f"unbound name {t.value!r}", t.span)

    def cube_name(self, t: Token) -> CubeExpr:
        bound = self.scope.get(t.value)
        if bound is None:
            if self.env is None:
                return CVar(t.value)
            raise ScopeError(f"unbound variable {t.value!r} in tope", t.span)
        if bound == "typed":
            raise ScopeError(
                f"variable {t.value!r} has a type, not a cube, and cannot appear in a tope",
                t.span)
        return CVar(t.value) if isinstance(bound, str) else bound

    def bind(self, name: str, bound: Bound) -> dict[str, Bound]:
        """Bind ``name`` for the binder being parsed, hiding an outer one;
        returns the scope to restore at the end of the binder."""
        saved = self.scope
        self.scope = {**saved, name: bound}
        return saved

    def declare(self, name: str, sort: str, span: Span) -> None:
        """Bind a parameter of the telescope being parsed."""
        if name in self.scope:
            raise ScopeError(f"repeated parameter name {name!r}", span)
        if isinstance(self.global_(name), Shape):
            raise ScopeError(f"parameter {name!r} shadows a shape", span)
        self.scope[name] = sort

    # -- top level

    def parse_file(self) -> list[Union[Decl, Shape]]:
        while not self.at("eof"):
            name = self.peek(1)  # after the keyword
            item = self.parse_toplevel()
            if item.name in self.items:
                raise ParseError(f"duplicate declaration of {item.name!r}",
                                 name.line, name.col, self.filename)
            if self.env.taken(item.name):
                raise ScopeError(f"redefinition of {item.name!r}", item.span)
            self.items[item.name] = item
        return list(self.items.values())

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
        self.scope = dict.fromkeys(pattern, "cube")
        tope = self.parse_tope()
        self.expect("}")
        span = self.span_from(start)
        try:
            factors = split_cube(cube, len(pattern))
        except CubeError as err:
            raise ScopeError(str(err), span) from None
        if len(set(pattern)) != len(pattern):
            raise ScopeError("repeated variable in shape pattern", span)
        _check_tope(dict(zip(pattern, factors)), tope, span)
        return Shape(name, pattern, cube, tope, span=span)

    def parse_decl(self, kind: str, start: Token) -> Decl:
        name = self.expect("ident").value
        self.scope = {}
        telescope = self.parse_telescope()
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
        return Decl(name, tag, telescope, ty, body, span=self.span_from(start))

    def parse_telescope(self) -> tuple[TeleParam, ...]:
        """Cube parameters, then tope parameters, then typed parameters; the
        names of a group ``(x y : A)`` share one type, read before any of
        them is bound."""
        params: list[TeleParam] = []
        cube_ctx: dict[str, CubeType] = {}
        phase = 0  # 0: cube params, 1: tope params, 2: typed params
        while self.at("(") or self.at("{"):
            start = self.peek()
            if self.accept("{"):
                tope = self.parse_tope()
                self.expect("}")
                span = self.span_from(start)
                if phase > 1:
                    raise ScopeError(
                        "tope parameters must come before typed parameters", span)
                if not cube_ctx:
                    raise ScopeError(
                        "a tope parameter needs a cube parameter in scope", span)
                phase = 1
                _check_tope(cube_ctx, tope, span)
                params.append(TopeParam(tope, span=span))
                continue
            self.expect("(")
            names = [self.expect("ident").value]
            while self.at("ident"):
                names.append(self.next().value)
            self.expect(":")
            if self.cube_ahead():
                cube = self.parse_cube_type()
                self.expect(")")
                span = self.span_from(start)
                if phase > 0:
                    raise ScopeError(
                        "cube parameters must come before tope and typed parameters", span)
                for n in names:
                    self.declare(n, "cube", span)
                    cube_ctx[n] = cube
                    params.append(CubeParam(n, cube, span=span))
            else:
                ty = self.parse_expr()
                self.expect(")")
                span = self.span_from(start)
                phase = 2
                for n in names:
                    self.declare(n, "typed", span)
                    params.append(TypedParam(n, ty, span=span))
        return tuple(params)

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

    def parse_cube_domain(self, var: str) -> tuple[CubeType, Tope]:
        """``C`` or ``C | psi``, where ``psi`` may mention the bound ``var``."""
        cube = self.parse_cube_type()
        if not self.accept("|"):
            return cube, TOP
        saved = self.bind(var, "cube")
        psi = self.parse_tope()
        self.scope = saved
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
            return self.cube_name(self.next())
        if self.accept("("):
            e = self.parse_cube_expr()
            while self.accept(","):
                e = CPair(e, self.parse_cube_expr())
            self.expect(")")
            return e
        raise self.fail("expected a cube point")

    # -- topes

    def parse_tope(self) -> Tope:
        left = self.parse_tope_conj()
        while self.accept("\\/"):
            left = TOr(left, self.parse_tope_conj())
        return left

    def parse_tope_conj(self) -> Tope:
        left = self.parse_tope_atom()
        while self.accept("/\\"):
            left = TAnd(left, self.parse_tope_atom())
        return left

    def parse_tope_atom(self) -> Tope:
        if self.accept("kw", "TOP"):
            return TOP
        if self.accept("kw", "BOT"):
            return BOT
        if self.at("(") and not self.after_group("<=", "==="):
            self.next()
            t = self.parse_tope()
            self.expect(")")
            return t
        if (self.at("ident") and self.peek().value not in self.scope
                and self.peek(1).kind not in ("<=", "===")):
            tok = self.next()
            if self.env is None:
                raise ParseError(f"unknown tope form {tok.value!r}",
                                 tok.line, tok.col, self.filename)
            sh = self.global_(tok.value)
            if not isinstance(sh, Shape):
                raise ScopeError(f"unknown shape {tok.value!r}", tok.span)
            return sh.applied_to(self.parse_cube_atom())
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
        saved = self.scope
        if len(names) == 1:
            var = names[0]
            self.scope = {**saved, var: "unknown"}
        else:
            var = fresh("p", self.scope)
            comps = split_point(CVar(var), len(names))
            self.scope = {**saved, var: "unknown", **dict(zip(names, comps))}
        body = self.parse_expr()
        self.scope = saved
        return Lam(var, body, span=self.span_from(start))

    def parse_arrow(self) -> Expr:
        start = self.peek()
        if (self.at("(") and self.peek(1).kind == "ident"
                and self.peek(2).kind == ":" and self.after_group("->")):
            return self.parse_pi_binder(start)
        sh = self.shape_ahead("->")
        if sh is not None:
            self.next()
            t = fresh("t", self.scope)
            return Ext(t, sh.cube, sh.applied_to(CVar(t)), self.parse_arrow(),
                       BOT, TopeCase(()), span=self.span_from(start))
        left = self.parse_sigma_op()
        if self.accept("->"):
            return Pi(fresh("x", self.scope), left, self.parse_arrow(), span=self.span_from(start))
        return left

    def parse_pi_binder(self, start: Token) -> Expr:
        """``(x : D) -> B``: an extension type with an empty boundary if
        ``D`` is a cube type or a shape, a Π otherwise."""
        self.expect("(")
        var = self.next().value
        self.expect(":")
        cube: Optional[CubeType] = None
        if self.cube_ahead():
            cube, psi = self.parse_cube_domain(var)
        elif (sh := self.shape_ahead(")")) is not None:
            cube, psi = sh.cube, sh.applied_to(CVar(var))
        else:
            dom = self.parse_expr()
        self.expect(")")
        self.expect("->")
        saved = self.bind(var, "typed" if cube is None else "cube")
        cod = self.parse_arrow()
        self.scope = saved
        if cube is not None:
            return Ext(var, cube, psi, cod, BOT, TopeCase(()), span=self.span_from(start))
        return Pi(var, dom, cod, span=self.span_from(start))

    def parse_sigma_op(self) -> Expr:
        start = self.peek()
        left = self.parse_app()
        if self.accept("*"):
            return Sigma(fresh("x", self.scope), left, self.parse_sigma_op(),
                         span=self.span_from(start))
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
            saved = self.bind(var, "typed")
            body = self.parse_app()
            self.scope = saved
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
            return self.term_name(self.next())
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
        """``<Pi (t : D) -> F [branches]>``; the branches make the boundary
        tope (their disjunction) and term (a tope case, unless there is
        one branch)."""
        self.expect("<")
        self.expect("kw", "Pi")
        self.expect("(")
        var = self.expect("ident").value
        self.expect(":")
        if self.cube_ahead():
            cube, psi = self.parse_cube_domain(var)
        elif self.at("ident"):
            t = self.next()
            sh = None if t.value in self.scope else self.global_(t.value)
            if not isinstance(sh, Shape):
                raise ScopeError("an extension type needs a cube or shape domain", t.span)
            cube, psi = sh.cube, sh.applied_to(CVar(var))
        else:
            raise self.fail("an extension type needs a cube or shape domain")
        self.expect(")")
        self.expect("->")
        saved = self.bind(var, "cube")
        family = self.parse_sigma_op()
        self.expect("[")
        branches = () if self.at("]") else self.parse_branches()
        self.expect("]")
        self.scope = saved
        self.expect(">")
        if not branches:
            phi, bd = BOT, TopeCase(())
        elif len(branches) == 1:
            phi, bd = branches[0]
        else:
            phi, bd = tope_or(*(t for t, _ in branches)), TopeCase(branches)
        return Ext(var, cube, psi, family, phi, bd, span=self.span_from(start))

    def parse_tope_case(self, start: Token) -> Expr:
        self.expect("[")
        branches: tuple[tuple[Tope, Expr], ...] = ()
        if not self.at("]"):
            branches = self.parse_branches()
        self.expect("]")
        return TopeCase(branches, span=self.span_from(start))

    def parse_branches(self) -> tuple[tuple[Tope, Expr], ...]:
        out = []
        while True:
            tope = self.parse_tope()
            self.expect("|->")
            body = self.parse_expr()
            out.append((tope, body))
            if not self.accept("|"):
                break
        return tuple(out)


def _check_tope(ctx: dict[str, CubeType], t: Tope, span: Span) -> None:
    """Check the points of a tope against the cube context it lives in."""
    try:
        normalize_tope(ctx, t)
    except TopeError as err:
        raise ScopeError(str(err), span) from None


# ---------------------------------------------------------------------------
# Entry points

def parse_file(src: str, filename: str = "<input>",
               env: Optional[GlobalEnv] = None) -> list[Union[Decl, Shape]]:
    """Parse a file into its resolved declarations and shapes, against the
    environment ``env`` (empty if None), which is not changed."""
    return Parser(src, filename, env or GlobalEnv()).parse_file()


def parse_expr(src: str, filename: str = "<input>",
               env: Optional[GlobalEnv] = None,
               scope: Optional[dict[str, Bound]] = None) -> Expr:
    """Parse a resolved term whose free names are the bound ones of
    ``scope`` and the globals of ``env``."""
    p = Parser(src, filename, env or GlobalEnv(), scope)
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
            p.scope[name] = "cube"
            if not p.accept(","):
                break
    p.expect("|")
    hyp = p.parse_tope()
    p.expect("|-")
    goal = p.parse_tope()
    p.expect("eof")
    return Sequent(tuple(ctx), hyp, goal)
