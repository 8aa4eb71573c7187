"""Surface syntax: lexer and recursive-descent parser.

The lexer matches one compiled pattern, built from ``PUNCT`` and
``KEYWORDS``, at each position.  A token's kind is its own text (a keyword,
a numeral ``0``/``1``/``2`` or punctuation), except ``"ident"`` for any
other name and ``"eof"`` at the end of input, so the parser compares kinds
only and picks each alternative with one ``match`` on the token in hand.

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
adds a parsed file's shapes to the environment, and the checker its
declarations once they check.

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

import re
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

# where one symbol begins another, the longer comes first
PUNCT = [
    "|->", "|-", ":=", "===", "<=", "->", "/\\", "\\/",
    "(", ")", "{", "}", "[", "]", "<", ">", ",", ".", ":", "|", "*", "\\",
]

_TOKEN = re.compile("|".join([
    r"(\n)",                                       # 1: a newline
    r"[ \t\r]+|--[^\n]*",                          # blanks or a comment
    r"([^\W\d][\w']*)",                            # 2: a name
    r"(\d+)",                                      # 3: digits
    "(" + "|".join(map(re.escape, PUNCT)) + ")",  # 4: punctuation
    r"(.)",                                       # 5: anything else
]))


class Token(Node):
    # kind: "ident", "eof", or the token's own text
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
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        if group == 1:
            line, line_start = line + 1, m.end()
        elif group:
            start, end, text = m.start(), m.end(), m.group()
            col = start - line_start + 1
            # \w takes in numeric characters that are not letters, like ²,
            # and \d+ stops before a digit of another kind, as in 1²
            if (group == 5 or group == 2 and not (text[0].isalpha() or text[0] == "_")
                    or group == 3 and (text not in ("0", "1", "2") or src[end:end + 1].isdigit())):
                raise ParseError(_unexpected(src, start), line, col, filename)
            kind = "ident" if group == 2 and text not in KEYWORDS else text
            toks.append(Token(kind, text, start, end, line, col))
    n = len(src)
    toks.append(Token("eof", "", n, n, line, n - line_start + 1))
    return toks


def _unexpected(src: str, i: int) -> str:
    """Why no token starts at ``src[i]``: a number other than a numeral,
    read as a run of digits of any kind, or another character."""
    j = i
    while j < len(src) and src[j].isdigit():
        j += 1
    return f"unexpected number {src[i:j]!r}" if j > i else f"unexpected character {src[i]!r}"


# ---------------------------------------------------------------------------
# Parser

# What a bound name stands for: its sort ("cube", "typed", or "unknown" for a
# λ binder), or the projection of a tuple-pattern lambda's point
Bound = Union[str, CubeExpr]

# the kinds of token that start an application argument; "[" does not, so a
# tope case used as an argument must be parenthesized, which keeps
# extension-type boundaries unambiguous
_ATOM_START = frozenset({
    "ident", "0", "1", "2", "U", "Unit", "star", "fst", "snd", "Id", "refl", "J",
    "Sigma", "(", "<",
})

_TERM_CONSTANTS = {"U": U, "Unit": UnitType, "star": UnitPoint}
_CUBE_CONSTANTS = {"0": CZERO, "1": CONE, "star": CSTAR}


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

    def at(self, kind: str) -> bool:
        return self.toks[self.pos].kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        t = self.toks[self.pos]
        if t.kind == kind:
            self.pos += 1
            return t
        return None

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t.kind == kind:
            return self.next()
        raise self.fail(f"expected {kind!r}, found {t.value or t.kind!r}")

    def fail(self, message: str, t: Optional[Token] = None) -> ParseError:
        """An error at ``t``, by default the token in hand."""
        t = t or self.peek()
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
            kind = self.toks[i].kind
            if kind == "(":
                depth += 1
            elif kind == ")":
                if depth == 0:
                    break
                depth -= 1
            elif kind == "|" and depth == 0:
                break
            elif kind not in ("*", "1", "2"):
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
            match self.peek().kind:
                case "shape":
                    item = self.parse_shape_decl()
                case "def" | "postulate" | "thm":
                    item = self.parse_decl()
                case _:
                    raise self.fail("expected a declaration (def, postulate, thm, or shape)")
            if item.name in self.items:
                raise self.fail(f"duplicate declaration of {item.name!r}", name)
            if self.env.taken(item.name):
                raise ScopeError(f"redefinition of {item.name!r}", item.span)
            self.items[item.name] = item
        return list(self.items.values())

    def parse_shape_decl(self) -> Shape:
        start = self.next()
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

    def parse_decl(self) -> Decl:
        start = self.next()
        name = self.expect("ident").value
        self.scope = {}
        telescope = self.parse_telescope()
        self.expect(":")
        ty = self.parse_expr()
        body: Optional[Expr] = None
        if start.kind == "def":
            self.expect(":=")
            body, tag = self.parse_expr(), DeclTag.DEFINITION
        elif start.kind == "postulate":
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
        while self.peek().kind in ("(", "{"):
            start = self.next()
            if start.kind == "{":
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

    # -- cubes

    def parse_cube_type(self) -> CubeType:
        left = self.parse_cube_type_atom()
        if self.accept("*"):
            return ProdCube(left, self.parse_cube_type())
        return left

    def parse_cube_type_atom(self) -> CubeType:
        t = self.next()
        match t.kind:
            case "2":
                return INTERVAL
            case "1":
                return UNIT_CUBE
            case "(":
                cube = self.parse_cube_type()
                self.expect(")")
                return cube
        raise self.fail("expected a cube type (1, 2, or a product)", t)

    def parse_cube_domain(self, var: str) -> tuple[CubeType, Tope]:
        """``C`` or ``C | psi``, where ``psi`` may mention the bound ``var``."""
        cube = self.parse_cube_type()
        if not self.accept("|"):
            return cube, TOP
        saved = self.bind(var, "cube")
        psi = self.parse_tope()
        self.scope = saved
        return cube, psi

    def parse_cube_atom(self) -> CubeExpr:
        t = self.next()
        match t.kind:
            case "0" | "1" | "star":
                return _CUBE_CONSTANTS[t.kind]
            case "fst":
                return CFst(self.parse_cube_atom())
            case "snd":
                return CSnd(self.parse_cube_atom())
            case "ident":
                return self.cube_name(t)
            case "(":
                e = self.parse_cube_atom()
                while self.accept(","):
                    e = CPair(e, self.parse_cube_atom())
                self.expect(")")
                return e
        raise self.fail("expected a cube point", t)

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
        t = self.peek()
        match t.kind:
            case "TOP" | "BOT":
                self.next()
                return TOP if t.kind == "TOP" else BOT
            case "(" if not self.after_group("<=", "==="):
                self.next()
                tope = self.parse_tope()
                self.expect(")")
                return tope
            case "ident" if t.value not in self.scope and self.peek(1).kind not in ("<=", "==="):
                self.next()
                if self.env is None:
                    raise self.fail(f"unknown tope form {t.value!r}", t)
                sh = self.global_(t.value)
                if not isinstance(sh, Shape):
                    raise ScopeError(f"unknown shape {t.value!r}", t.span)
                return sh.applied_to(self.parse_cube_atom())
        a = self.parse_cube_atom()
        if self.accept("<="):
            return TLe(a, self.parse_cube_atom())
        self.expect("===")
        return TEq(a, self.parse_cube_atom())

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
        if (start.kind == "(" and self.peek(1).kind == "ident"
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
        while self.toks[self.pos].kind in _ATOM_START:
            arg = self.parse_prefix()
            head = App(head, arg, span=self.span_from(start))
        return head

    def parse_prefix(self) -> Expr:
        """An atom possibly led by one of the prefix operators."""
        start = self.peek()
        match start.kind:
            case "fst":
                self.next()
                return Fst(self.parse_prefix(), span=self.span_from(start))
            case "snd":
                self.next()
                return Snd(self.parse_prefix(), span=self.span_from(start))
            case "Id":
                self.next()
                ty, lhs, rhs = self.parse_atom(), self.parse_atom(), self.parse_atom()
                return IdT(ty, lhs, rhs, span=self.span_from(start))
            case "refl":
                self.next()
                arg = self.parse_atom() if self.peek().kind in _ATOM_START else None
                return Refl(arg, span=self.span_from(start))
            case "J":
                self.next()
                motive, base, path = self.parse_atom(), self.parse_atom(), self.parse_atom()
                return J(motive, base, path, span=self.span_from(start))
            case "Sigma":
                self.next()
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
        start = self.next()
        match start.kind:
            case "U" | "Unit" | "star":
                return _TERM_CONSTANTS[start.kind](span=start.span)
            case "0" | "1":
                return CubeLit(_CUBE_CONSTANTS[start.kind], span=start.span)
            case "2":
                raise self.fail("the interval is not a term", start)
            case "ident":
                return self.term_name(start)
            case "<":
                return self.parse_ext(start)
            case "[":
                return TopeCase(self.parse_branches(), span=self.span_from(start))
            case "(":
                e = self.parse_lambda(start) if self.accept("\\") else self.parse_expr()
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
        raise self.fail("expected an expression", start)

    def parse_ext(self, start: Token) -> Expr:
        """``<Pi (t : D) -> F [branches]>`` after the ``<``; the branches make
        the boundary tope (their disjunction) and term (a tope case, unless
        there is one branch)."""
        self.expect("Pi")
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
        branches = self.parse_branches()
        self.scope = saved
        self.expect(">")
        if not branches:
            phi, bd = BOT, TopeCase(())
        elif len(branches) == 1:
            phi, bd = branches[0]
        else:
            phi, bd = tope_or(*(t for t, _ in branches)), TopeCase(branches)
        return Ext(var, cube, psi, family, phi, bd, span=self.span_from(start))

    def parse_branches(self) -> tuple[tuple[Tope, Expr], ...]:
        """``tope |-> term | ...`` up to and including the ``]`` after the
        ``[``; there may be none."""
        out = []
        if not self.accept("]"):
            while True:
                tope = self.parse_tope()
                self.expect("|->")
                out.append((tope, self.parse_expr()))
                if not self.accept("|"):
                    break
            self.expect("]")
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
