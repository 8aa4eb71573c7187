"""Surface syntax: lexer and recursive-descent parser.

The lexer makes one match of one compiled pattern per token, the blanks and
comments before it included.  A token is a plain tuple ``(kind, text, start,
end)``; ``line_col`` works out a line and column only for a ``ParseError``.
A token's kind is its own text (a keyword, a numeral ``0``/``1``/``2`` or
punctuation), except ``"ident"`` for any other name and ``"eof"`` at the end
of input, so the parser compares kinds only and picks each alternative with
one ``match`` on the token in hand.

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
- a Π, arrow or extension domain is a shape iff it is a shape's name,
  possibly in parentheses, that no bound name hides;
- a parenthesized tope is a relation iff ``<=`` or ``===`` follows its ``)``;
- an identifier in a tope starts a relation iff it is a bound name or
  ``<=`` or ``===`` follows it, and applies a shape otherwise.

So every token is parsed once, and a parenthesized term costs three frames
(``parse_atom``, ``parse_arrow``, ``parse_app``).  A tope is read in one
loop that keeps what it read outside each open parenthesis on a list, so
its parentheses cost no frames.  The grammar is documented in
docs/syntax.md.
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
    ProdCube,
    UNIT_CUBE,
    split_cube,
    split_point,
)
from .scope import GlobalEnv, ScopeError
from .tope import (
    BOT, TOP, Sequent, Shape, TAnd, TEq, TLe, TOr, Tope, TopeError, normalize_tope, tope_or,
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

# The blanks and comments before a token are part of its match, and the end
# of input ends the last one, so n tokens take n + 1 matches (one more, and
# empty, after a final blank or comment); the lexer counts offsets itself.
# The blanks are matched as an unrolled loop, and the one-character
# punctuation as one character class.
_TOKEN = re.compile(
    r"([ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*)"  # blanks and comments, then the token:
    r"([^\W\d][\w']*|\d+|"                 # a name, digits,
    + "|".join(re.escape(p) for p in PUNCT if len(p) > 1)    # punctuation,
    + "|[" + "".join(re.escape(p) for p in PUNCT if len(p) == 1) + "]"
    + r"|.|\Z)")                             # anything else, or nothing at the end

# the tokens whose kind is their text, but for the numerals
_KINDS = {text: text for text in (*KEYWORDS, *PUNCT)}

Token = tuple[str, str, int, int]  # (kind, text, start, end)


def lex(src: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    end = 0
    for blank, text in _TOKEN.findall(src):
        start = end + len(blank)
        end = start + len(text)
        kind = _KINDS.get(text)
        if kind is None:
            # \w takes in numeric characters that are not letters, like ²,
            # and \d+ stops before a digit of another kind, as in 1²
            if text[:1].isalpha() or text[:1] == "_":
                kind = "ident"
            elif text in ("0", "1", "2") and not src[end:end + 1].isdigit():
                kind = text
            elif text:
                raise ParseError(_unexpected(src, start), *line_col(src, start), filename)
            else:
                break
        append((kind, text, start, end))
    append(("eof", "", len(src), len(src)))
    return toks


def line_col(src: str, i: int) -> tuple[int, int]:
    """The line and column of ``src[i]``, both from 1."""
    return src.count("\n", 0, i) + 1, i - src.rfind("\n", 0, i)


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

# the prefix operators, which ``parse_prefix`` reads
_PREFIX = frozenset({"fst", "snd", "Id", "refl", "J", "Sigma"})

# the kinds of token that start an application argument; "[" does not, so a
# tope case used as an argument must be parenthesized, which keeps
# extension-type boundaries unambiguous
_ATOM_START = _PREFIX | {"ident", "0", "1", "2", "U", "Unit", "star", "(", "<"}

_TERM_CONSTANTS = {"U": U, "Unit": UnitType, "star": UnitPoint}
_CUBE_CONSTANTS = {"0": CZERO, "1": CONE, "star": CSTAR}

# the tokens that are a cube point on their own, and the relations of a tope
_POINT_TOKENS = frozenset({"ident", *_CUBE_CONSTANTS})
_RELATIONS = ("<=", "===")


def _matching_parens(toks: list[Token]) -> dict[int, int]:
    """The index of the ``)`` closing each ``(``; an unbalanced one has none."""
    close: dict[int, int] = {}
    opened: list[int] = []
    for i, t in enumerate(toks):
        if t[0] == "(":
            opened.append(i)
        elif t[0] == ")" and opened:
            close[opened.pop()] = i
    return close


class Parser:
    """``env`` None parses topes only, as in a sequent: no shape may be
    applied, and the solver checks the names."""

    def __init__(self, src: str, filename: str = "<input>",
                 env: Optional[GlobalEnv] = None,
                 scope: Optional[dict[str, Bound]] = None):
        toks = lex(src, filename)
        # two more ``eof`` tokens keep lookahead (2 ahead at most) in range
        self.toks = toks + [toks[-1]] * 2
        self.pos = 0
        self.src = src
        self.filename = filename
        self.close = _matching_parens(self.toks)
        self.env = env
        self.scope: dict[str, Bound] = dict(scope or {})
        # the declarations and shapes read so far from this input
        self.items: dict[str, Union[Decl, Shape]] = {}
        # one node per cube variable name, so that the solver's lookups of
        # equal atoms hit by identity
        self.cube_vars: dict[str, CVar] = {}

    # -- token plumbing

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.toks[self.pos][0] == kind

    def accept(self, kind: str) -> Optional[Token]:
        t = self.toks[self.pos]
        if t[0] == kind:
            self.pos += 1
            return t
        return None

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t[0] == kind:
            self.pos += 1  # past ``eof`` only at the end, into the padding
            return t
        raise self.fail(f"expected {kind!r}, found {t[1] or t[0]!r}")

    def fail(self, message: str, t: Optional[Token] = None) -> ParseError:
        """An error at ``t``, by default the token in hand."""
        t = t or self.toks[self.pos]
        return ParseError(message, *line_col(self.src, t[2]), self.filename)

    def span_from(self, start: Token) -> Span:
        """From ``start`` to the last token read, at least one token on."""
        return Span(start[2], self.toks[self.pos - 1][3])

    # -- lookahead

    def after_group(self, *kinds: str) -> bool:
        """Whether the token after the ``)`` closing the ``(`` here is one of
        ``kinds``."""
        j = self.close.get(self.pos)
        return j is not None and self.toks[j + 1][0] in kinds

    def cube_ahead(self) -> bool:
        """Whether the tokens from here up to the enclosing ``)`` or a ``|``
        are only ``1``, ``2``, ``*`` and parentheses, as in a cube type."""
        i, depth = self.pos, 0
        while True:
            kind = self.toks[i][0]
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
        while toks[i][0] == "(":
            i += 1
        j = 2 * i - self.pos + 1  # the token after the closing parentheses
        kind, name = toks[i][:2]
        if (kind != "ident" or j >= len(toks) or toks[j][0] != stop
                or any(t[0] != ")" for t in toks[i + 1:j])
                or name in self.scope):
            return None
        sh = self.global_(name)
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
        name, span = t[1], Span(t[2], t[3])
        bound = self.scope.get(name)
        if isinstance(bound, str):
            return Var(name, span=span)
        if bound is not None:
            return cube_to_term(bound, span)
        item = self.global_(name)
        if isinstance(item, Decl):
            if item.tag == DeclTag.THEOREM_STATED:
                raise ScopeError(
                    f"{name!r} is a statement without a proof and cannot be used", span)
            return Const(name, span=span)
        if item is not None:
            raise ScopeError(f"shape {name!r} used as a term", span)
        raise ScopeError(f"unbound name {name!r}", span)

    def cube_name(self, t: Token) -> CubeExpr:
        name = t[1]
        bound = self.scope.get(name)
        if bound is None:
            if self.env is not None:
                raise ScopeError(f"unbound variable {name!r} in tope", Span(t[2], t[3]))
        elif not isinstance(bound, str):
            return bound
        elif bound == "typed":
            raise ScopeError(f"variable {name!r} has a type, not a cube, "
                             "and cannot appear in a tope", Span(t[2], t[3]))
        var = self.cube_vars.get(name)
        if var is None:
            var = self.cube_vars[name] = CVar(name)
        return var

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
        while (kind := self.toks[self.pos][0]) != "eof":
            name = self.toks[self.pos + 1]  # after the keyword
            match kind:
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
        name = self.expect("ident")[1]
        self.expect(":=")
        self.expect("{")
        pattern = tuple(self.parse_pattern())
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
        name = self.expect("ident")[1]
        self.scope = {}
        telescope = self.parse_telescope()
        self.expect(":")
        ty = self.parse_expr()
        body: Optional[Expr] = None
        if start[0] == "def":
            self.expect(":=")
            body, tag = self.parse_expr(), DeclTag.DEFINITION
        elif start[0] == "postulate":
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
        while self.toks[self.pos][0] in ("(", "{"):
            start = self.next()
            if start[0] == "{":
                tope = self.parse_tope()
                self.expect("}")
                span = self.span_from(start)
                if phase > 1:
                    raise ScopeError("tope parameters must come before typed parameters", span)
                if not cube_ctx:
                    raise ScopeError("a tope parameter needs a cube parameter in scope", span)
                phase = 1
                _check_tope(cube_ctx, tope, span)
                params.append(TopeParam(tope, span=span))
                continue
            names = [self.expect("ident")[1]]
            while self.at("ident"):
                names.append(self.next()[1])
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
        match t[0]:
            case "2":
                return INTERVAL
            case "1":
                return UNIT_CUBE
            case "(":
                cube = self.parse_cube_type()
                self.expect(")")
                return cube
        raise self.fail("expected a cube type (1, 2, or a product)", t)

    def parse_domain(self, var: str) -> Optional[tuple[CubeType, Tope]]:
        """The cube and shape tope at ``var`` of a binder's domain up to its
        ``)``: a cube type ``C``, or ``C | psi`` where ``psi`` may mention
        ``var``, or a shape, possibly in parentheses, that no bound name
        hides.  None, with nothing read, for any other domain."""
        if not self.cube_ahead():
            sh = self.shape_ahead(")")
            return None if sh is None else (sh.cube, sh.applied_to(CVar(var)))
        cube = self.parse_cube_type()
        if not self.accept("|"):
            return cube, TOP
        saved = self.bind(var, "cube")
        psi = self.parse_tope()
        self.scope = saved
        return cube, psi

    def parse_cube_atom(self) -> CubeExpr:
        t = self.next()
        match t[0]:
            case "0" | "1" | "star":
                return _CUBE_CONSTANTS[t[0]]
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
        """A tope, read in one loop: ``/\\`` binds tighter than ``\\/`` and
        both associate to the left.  ``outer`` keeps the disjunction and
        conjunction read before each open parenthesis, so parentheses do not
        recurse, and a relation of two one-token points is read in one step."""
        toks, close = self.toks, self.close
        outer: list[tuple[Optional[Tope], Optional[Tope]]] = []
        disj = conj = None
        pos = self.pos
        while True:
            t = toks[pos]
            kind = t[0]
            if kind == "(":
                j = close.get(pos)
                if j is None or toks[j + 1][0] not in _RELATIONS:  # a group
                    pos += 1
                    outer.append((disj, conj))
                    disj = conj = None
                    continue
            rel, right = toks[pos + 1][0], toks[pos + 2]
            if kind in _POINT_TOKENS and rel in _RELATIONS and right[0] in _POINT_TOKENS:
                pos += 3
                a = self.cube_name(t) if kind == "ident" else _CUBE_CONSTANTS[kind]
                b = self.cube_name(right) if right[0] == "ident" else _CUBE_CONSTANTS[right[0]]
                atom = TLe(a, b) if rel == "<=" else TEq(a, b)
            else:
                self.pos = pos
                atom = self.parse_tope_atom()
                pos = self.pos
            while True:
                conj = atom if conj is None else TAnd(conj, atom)
                kind = toks[pos][0]
                if kind == "/\\":
                    break
                if kind == "\\/":
                    disj = conj if disj is None else TOr(disj, conj)
                    conj = None
                    break
                atom = conj if disj is None else TOr(disj, conj)
                self.pos = pos
                if not outer:
                    return atom
                self.expect(")")
                pos += 1
                disj, conj = outer.pop()
            pos += 1

    def parse_tope_atom(self) -> Tope:
        """``TOP``, ``BOT``, an applied shape or a relation of two points."""
        t, after = self.toks[self.pos], self.toks[self.pos + 1][0]
        match t[0]:
            case "TOP" | "BOT":
                self.pos += 1
                return TOP if t[0] == "TOP" else BOT
            case "ident" if t[1] not in self.scope and after not in _RELATIONS:
                self.pos += 1
                if self.env is None:
                    raise self.fail(f"unknown tope form {t[1]!r}", t)
                sh = self.global_(t[1])
                if not isinstance(sh, Shape):
                    raise ScopeError(f"unknown shape {t[1]!r}", Span(t[2], t[3]))
                return sh.applied_to(self.parse_cube_atom())
        a = self.parse_cube_atom()
        if self.accept("<="):
            return TLe(a, self.parse_cube_atom())
        self.expect("===")
        return TEq(a, self.parse_cube_atom())

    # -- expressions

    def parse_expr(self) -> Expr:
        start = self.toks[self.pos]
        return self.parse_lambda(start) if self.accept("\\") else self.parse_arrow()

    def parse_pattern(self) -> list[str]:
        """``x`` or ``(x, y, ...)``."""
        if not self.accept("("):
            return [self.expect("ident")[1]]
        names = [self.expect("ident")[1]]
        while self.accept(","):
            names.append(self.expect("ident")[1])
        self.expect(")")
        return names

    def parse_lambda(self, start: Token) -> Expr:
        names = self.parse_pattern()
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
        """A Π, Σ, arrow or extension type, or an application; the first
        ``*`` of a Σ is read here, a frame above ``parse_sigma_op``."""
        toks, pos = self.toks, self.pos
        start = toks[pos]
        if (start[0] == "(" and toks[pos + 1][0] == "ident"
                and toks[pos + 2][0] == ":" and self.after_group("->")):
            return self.parse_pi_binder(start)
        sh = self.shape_ahead("->")
        if sh is not None:
            self.pos += 1
            t = fresh("t", self.scope)
            return Ext(t, sh.cube, sh.applied_to(CVar(t)), self.parse_arrow(),
                       BOT, TopeCase(()), span=self.span_from(start))
        left = self.parse_app()
        if self.accept("*"):
            left = Sigma(fresh("x", self.scope), left, self.parse_sigma_op(),
                         span=self.span_from(start))
        if self.accept("->"):
            return Pi(fresh("x", self.scope), left, self.parse_arrow(), span=self.span_from(start))
        return left

    def parse_pi_binder(self, start: Token) -> Expr:
        """``(x : D) -> B``: an extension type with an empty boundary if
        ``D`` is a cube type or a shape, a Π otherwise."""
        self.expect("(")
        var = self.next()[1]
        self.expect(":")
        shape = self.parse_domain(var)
        dom = self.parse_expr() if shape is None else None
        self.expect(")")
        self.expect("->")
        saved = self.bind(var, "typed" if shape is None else "cube")
        cod = self.parse_arrow()
        self.scope = saved
        if shape is not None:
            return Ext(var, *shape, cod, BOT, TopeCase(()), span=self.span_from(start))
        return Pi(var, dom, cod, span=self.span_from(start))

    def parse_sigma_op(self) -> Expr:
        """The right operand of a ``*``, or the family of an extension type."""
        start = self.toks[self.pos]
        left = self.parse_app()
        if self.accept("*"):
            return Sigma(fresh("x", self.scope), left, self.parse_sigma_op(),
                         span=self.span_from(start))
        return left

    def parse_app(self) -> Expr:
        toks = self.toks
        start = toks[self.pos]
        head = self.parse_prefix() if start[0] in _PREFIX else self.parse_atom()
        while (kind := toks[self.pos][0]) in _ATOM_START:
            arg = self.parse_prefix() if kind in _PREFIX else self.parse_atom()
            head = App(head, arg, span=self.span_from(start))
        return head

    def parse_prefix(self) -> Expr:
        """An atom possibly led by one of the prefix operators."""
        start = self.toks[self.pos]
        if start[0] not in _PREFIX:
            return self.parse_atom()
        self.pos += 1
        match start[0]:
            case "fst":
                return Fst(self.parse_prefix(), span=self.span_from(start))
            case "snd":
                return Snd(self.parse_prefix(), span=self.span_from(start))
            case "Id":
                ty, lhs, rhs = self.parse_atom(), self.parse_atom(), self.parse_atom()
                return IdT(ty, lhs, rhs, span=self.span_from(start))
            case "refl":
                arg = self.parse_atom() if self.toks[self.pos][0] in _ATOM_START else None
                return Refl(arg, span=self.span_from(start))
            case "J":
                motive, base, path = self.parse_atom(), self.parse_atom(), self.parse_atom()
                return J(motive, base, path, span=self.span_from(start))
            case _:  # Sigma
                self.expect("(")
                var = self.expect("ident")[1]
                self.expect(":")
                dom = self.parse_expr()
                self.expect(")")
                saved = self.bind(var, "typed")
                body = self.parse_app()
                self.scope = saved
                return Sigma(var, dom, body, span=self.span_from(start))

    def parse_atom(self) -> Expr:
        start = self.toks[self.pos]
        self.pos += 1  # past ``eof`` too, which is an error here
        kind = start[0]
        if kind == "ident":
            return self.term_name(start)
        match kind:
            case "U" | "Unit" | "star":
                return _TERM_CONSTANTS[kind](span=self.span_from(start))
            case "0" | "1":
                return CubeLit(_CUBE_CONSTANTS[kind], span=self.span_from(start))
            case "2":
                raise self.fail("the interval is not a term", start)
            case "<":
                return self.parse_ext(start)
            case "[":
                return TopeCase(self.parse_branches(), span=self.span_from(start))
            case "(":  # ``parse_expr`` inlined, one frame fewer
                e = self.parse_lambda(start) if self.accept("\\") else self.parse_arrow()
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
        var = self.expect("ident")[1]
        self.expect(":")
        shape = self.parse_domain(var)
        if shape is None:  # a name in parentheses is judged as a bare one
            t = self.next()
            while t[0] == "(":
                t = self.next()
            if t[0] != "ident":
                raise self.fail("an extension type needs a cube or shape domain", t)
            if t[1] in self.scope or not isinstance(self.global_(t[1]), Shape):
                raise ScopeError("an extension type needs a cube or shape domain",
                                 Span(t[2], t[3]))
            while self.accept(")"):  # a shape: fail at the token after its parentheses
                pass
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
        return Ext(var, *shape, family, phi, bd, span=self.span_from(start))

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
    p = Parser(src, filename)
    ctx: list[tuple[str, CubeType]] = []
    if not p.at("|"):
        while True:
            tok = p.expect("ident")
            name = tok[1]
            if name in p.scope:
                raise p.fail(f"repeated variable {name!r} in the context", tok)
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
