import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from generators import CASE_NAMES, random_expr, random_tope
from test_core import _subterms
from sstt.checker import Checker
from sstt.core import (
    U,
    Ann,
    App,
    Const,
    CubeParam,
    Decl,
    DeclTag,
    Ext,
    Fst,
    Lam,
    Pi,
    Sigma,
    Snd,
    Span,
    TopeCase,
    TopeParam,
    TriContext,
    TypedParam,
    Var,
    alpha_eq,
)
from sstt.cube import INTERVAL, CFst, CPair, CSnd, CVar, CZERO, ProdCube, display_name
from sstt.corpus import CORPUS_DIR
from sstt.parser import (
    KEYWORDS, PUNCT, ParseError, lex, line_col, parse_expr, parse_file, parse_sequent_source,
)
from sstt.printer import print_expr
from sstt.scope import GlobalEnv, ScopeError, elaborate_toplevels
from sstt.tope import BOT, TOP, TAnd, TEq, TLe, TOr, print_tope


def roundtrip(e, scope=None):
    text = print_expr(e)
    back = parse_expr(text, scope=scope)
    assert alpha_eq(e, back), f"{text!r} re-read as {print_expr(back)!r}"


def test_roundtrip_simple():
    roundtrip(Lam("x", Var("x")))
    roundtrip(Pi("x", U(), Var("x")))
    roundtrip(Lam("f", Lam("x", App(Var("f"), Var("x")))))


def test_roundtrip_random_sample():
    rng = random.Random(1)
    for _ in range(300):
        roundtrip(random_expr(rng, depth=4))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    roundtrip(random_expr(random.Random(seed), depth=5))


def test_roundtrip_tope_cases_and_annotations():
    # an annotated name is no binder, and a one-branch boundary that is
    # itself a case split is not the extension type's branches
    t, y = CVar("t"), Var("y")
    roundtrip(Lam("y", Pi("x", Ann(y, U()), U())))
    roundtrip(Ext("t", INTERVAL, TOP, U(), TEq(t, CZERO),
                  TopeCase(((TLe(t, CZERO), U()), (TLe(CZERO, t), U())))))
    rng = random.Random(2)
    scope = dict.fromkeys(CASE_NAMES, "cube")
    built = set()
    for _ in range(300):
        e = random_expr(rng, depth=4, cases=True)
        roundtrip(e, scope)
        built |= {n.__class__ for n in _subterms(e)}
    assert {TopeCase, Ann} <= built


def test_roundtrip_corpus():
    # the library's terms use syntax the random ones never build: constants,
    # shape domains, product cubes, tuple-pattern lambdas, cube applications
    # and tope cases of several branches
    env = GlobalEnv()
    terms = 0
    for path in sorted(CORPUS_DIR.glob("*.sstt")):
        for item in parse_file(path.read_text(encoding="utf-8"), path.name, env):
            if isinstance(item, Decl):
                for e in (item.ty, item.body):
                    if e is not None:
                        text = print_expr(e)
                        back = parse_expr(text, env=env)
                        assert alpha_eq(e, back), f"{item.name}: {text!r}"
                        terms += 1
                env.decls[item.name] = item
            else:
                env.shapes[item.name] = item
    assert terms == 247


def position(src, i):
    """The line and column of ``src[i]``, both from 1."""
    return src.count("\n", 0, i) + 1, i - (src.rfind("\n", 0, i) + 1) + 1


LEXER_PIECES = sorted(KEYWORDS) + PUNCT + [
    "0", "1", "2", "12", "x", "t1", "y'", "_a", "é", "²", "x²", "'", "-", "--",
    " ", "\t", "\r", "\n"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.sampled_from(LEXER_PIECES), max_size=30).map("".join),
    st.text(alphabet="".join(sorted(set("".join(LEXER_PIECES)))), max_size=40)))
def test_lexer_invariants(src):
    try:
        toks = lex(src)
    except ParseError:
        return
    *body, eof = toks
    end = 0
    for kind, text, start, stop in body:
        assert end <= start < stop
        end = stop
        assert src[start:stop] == text
        assert kind in ("ident", text)
        # tokens carry offsets; an error works out its line and column
        assert line_col(src, start) == position(src, start)
    assert eof == ("eof", "", len(src), len(src))
    assert line_col(src, len(src)) == position(src, len(src))


def test_benchmark_corpus_token_count():
    # the benchmark reports parser.tokens as len(lex(src)) summed over its
    # frozen corpus; a lexer that counts tokens differently breaks the
    # comparison of parser.tokens and parser.tokens_per_s across versions
    corpus = Path(__file__).resolve().parents[1] / "bench" / "data" / "corpus"
    assert sum(len(lex(p.read_text(encoding="utf-8"))) for p in corpus.glob("*.sstt")) == 8490


def test_parse_file_kinds():
    env = GlobalEnv(decls={"hom": Decl("hom", DeclTag.AXIOM, (), U(), None)})
    items = parse_file(
        "def idarr (A : U) (x : A) : hom A x x := \\t. x\n"
        "postulate ax (A : U) : A\n"
        "thm stated (A : U) : U\n",
        env=env,
    )
    tags = [d.tag for d in items]
    assert tags == [DeclTag.DEFINITION, DeclTag.AXIOM, DeclTag.THEOREM_STATED]
    assert items[0].inner_body is not None
    assert items[1].inner_body is None
    assert items[2].inner_body is None


def test_duplicate_names_rejected():
    with pytest.raises(ParseError) as e:
        parse_file("def a (A : U) : U := A\ndef a (A : U) : U := A\n")
    assert "a" in str(e.value.message)
    assert (e.value.line, e.value.col) == (2, 5)  # the second name


def test_parse_error_has_location():
    with pytest.raises(ParseError) as e:
        parse_expr("Sigma (x : ")
    assert e.value.line >= 1 and e.value.col >= 1


def test_parse_sequent():
    seq = parse_sequent_source("t : 2, s : 2 | t <= s |- t <= 1")
    assert [n for n, _ in seq.ctx] == ["t", "s"]
    # interval variables on both sides of a product one
    seq = parse_sequent_source("t : 2, p : 2 * 2, s : 2 | TOP |- TOP")
    assert seq.ctx == (("t", INTERVAL), ("p", ProdCube(INTERVAL, INTERVAL)), ("s", INTERVAL))


def _bracketed(t) -> str:
    """A tope with every compound operand in parentheses, some twice."""
    if isinstance(t, (TAnd, TOr)):
        op = " /\\ " if isinstance(t, TAnd) else " \\/ "
        parts = [_bracketed(x) for x in (t.left, t.right)]
        return op.join(f"(({p}))" if isinstance(x, TAnd) else f"({p})"
                       if isinstance(x, TOr) else p for p, x in zip(parts, (t.left, t.right)))
    return print_tope(t)


def test_topes_print_and_parse_back():
    # the one-loop reader gives the printed tree back, with the fewest
    # parentheses and with every compound operand bracketed
    rng = random.Random(20261019)
    names = ["t1", "t2", "t3"]
    ctx = ", ".join(f"{n} : 2" for n in names)
    for _ in range(300):
        hyp, goal = random_tope(rng, names, 5), random_tope(rng, names, 5)
        for show in (print_tope, _bracketed):
            seq = parse_sequent_source(f"{ctx} | {show(hyp)} |- {show(goal)}")
            assert (seq.hyp, seq.goal) == (hyp, goal), show(hyp)


@pytest.mark.parametrize("src,message", [
    ("t : 2 | (t <= 1 /\\ (0 <= t) |- TOP", "1:29: expected ')', found '|-'"),
    ("t : 2 | TOP |- (t <= 1 \\/ t === 0", "1:34: expected ')', found 'eof'"),
    ("t : 2 | t <= 1 /\\ |- TOP", "1:19: expected a cube point"),
    ("t : 2 | TOP |- t <= 1 \\/", "1:25: expected a cube point"),
    ("t : 2 | t <= 1 |-> TOP", "1:16: expected '|-', found '|->'"),
    ("t : 2 | t <= 1 \\/ (0 <= t |-> t) |- TOP", "1:27: expected ')', found '|->'"),
    ("t : 2 2 | TOP |- TOP", "1:7: expected '|', found '2'"),
    ("t : 2 * | TOP |- TOP", "1:9: expected a cube type (1, 2, or a product)"),
    ("t : 2, : 2 | TOP |- TOP", "1:8: expected 'ident', found ':'"),
])
def test_malformed_sequents_keep_their_errors(src, message):
    with pytest.raises(ParseError) as e:
        parse_sequent_source(src)
    assert str(e.value) == f"<sequent>:{message}"


def test_a_parse_makes_one_node_per_cube_variable():
    # so that the solver's lookups of an atom hit by identity
    seq = parse_sequent_source("t : 2, s : 2 | t <= s /\\ s <= t |- t === s")
    a, b = seq.hyp.left, seq.hyp.right
    assert a.left is b.right is seq.goal.left
    assert a.right is b.left is seq.goal.right


def test_blanks_and_comments_between_tokens():
    src = "x -- one\n\t-- two\r\n  <=--three\ny -- end"
    assert [t[:2] for t in lex(src)] == [
        ("ident", "x"), ("<=", "<="), ("ident", "y"), ("eof", "")]
    assert [t[1] for t in lex("|->|-|:=(<=<)===\\/\\")] == [
        "|->", "|-", "|", ":=", "(", "<=", "<", ")", "===", "\\/", "\\", ""]


def test_spans_nest():
    items = parse_file("def f (A : U) (x : A) : A := x\n")
    decl = items[0]
    assert decl.span is not None
    for p in decl.telescope:
        assert decl.span.contains(p.span)
    assert decl.span.contains(decl.inner_ty.span)
    assert decl.span.contains(decl.inner_body.span)


# -- choices made by lookahead, each checked on the resolved core term

PRELUDE = (
    "shape Delta1 := {t : 2 | TOP}\n"
    "shape Delta2 := {(t1, t2) : 2 * 2 | t2 <= t1}\n"
)


def resolved(src, *names):
    env = GlobalEnv()
    elaborate_toplevels(parse_file(PRELUDE), env)
    return parse_expr(src, env=env, scope={n: "typed" for n in names})


def test_binder_with_cube_domain_against_parenthesized_type():
    assert resolved("(t : 2) -> A", "A") == Ext(
        "t", INTERVAL, TOP, Var("A"), BOT, TopeCase(()))
    assert resolved("(t : 2 | t <= 0) -> A", "A") == Ext(
        "t", INTERVAL, TLe(CVar("t"), CZERO), Var("A"), BOT, TopeCase(()))
    assert resolved("(x : (A)) -> B", "A", "B") == Pi("x", Var("A"), Var("B"))


def test_parenthesized_binder_not_followed_by_arrow_is_an_annotation():
    assert resolved("(x : A)", "x", "A") == Ann(Var("x"), Var("A"))
    assert alpha_eq(resolved("(x : A) * B", "x", "A", "B"),
                    Sigma("y", Ann(Var("x"), Var("A")), Var("B")))


def test_cube_parameter_against_typed_parameter():
    (decl,) = parse_file("def f (p : 2 * 2) (A : U) (x y : A) : U := A\n")
    assert decl.telescope == (
        CubeParam("p", ProdCube(INTERVAL, INTERVAL)),
        TypedParam("A", U()),
        TypedParam("x", Var("A")),
        TypedParam("y", Var("A")),
    )


def test_parenthesized_relation_against_parenthesized_tope():
    seq = parse_sequent_source("t : 2, s : 2 | ((t, s) === (s, t)) |- ((t <= s))")
    t, s = CVar("t"), CVar("s")
    assert seq.hyp == TEq(CPair(t, s), CPair(s, t))
    assert seq.goal == TLe(t, s)


def test_shape_application_against_relation():
    env = GlobalEnv()
    (decl,) = elaborate_toplevels(parse_file(
        PRELUDE + "def f (t s : 2) {Delta2 (t, s) /\\ t <= s} : U := U\n"), env)
    ts = CPair(CVar("t"), CVar("s"))
    assert decl.telescope[2] == TopeParam(
        TAnd(TLe(CSnd(ts), CFst(ts)), TLe(CVar("t"), CVar("s"))))


def test_bound_name_in_tope_starts_a_relation():
    # a bound name is never read as a shape, also with no relation after it
    with pytest.raises(ParseError) as e:
        resolved("<Pi (t : Delta1) -> A [t 0 |-> x]>", "A", "x")
    assert (e.value.message, e.value.col) == ("expected '===', found '0'", 26)
    with pytest.raises(ScopeError, match="variable 'x' has a type"):
        resolved("<Pi (t : 2) -> A [x |-> x]>", "A", "x")


def test_tuple_pattern_names_project_the_point():
    assert alpha_eq(resolved("\\(t1, t2). f t2 t1", "f"),
                    Lam("p", App(App(Var("f"), Snd(Var("p"))), Fst(Var("p")))))
    # an inner binder hides a pattern name, in terms and in topes alike
    assert alpha_eq(resolved("\\(t, s). \\t. [ t <= s |-> t ]"),
                    Lam("p", Lam("t", TopeCase(
                        ((TLe(CVar("t"), CSnd(CVar("p"))), Var("t")),)))))
    assert alpha_eq(resolved("\\(t, s). (s : U) -> s"),
                    Lam("p", Pi("s", U(), Var("s"))))


def test_anonymous_binders_are_named_alike_on_every_parse():
    # a generated name depends only on the names in scope
    first = resolved("A -> B -> A", "A", "B")
    assert first == resolved("A -> B -> A", "A", "B")
    assert (first.var, first.cod.var) == ("x$1", "x$1")


def test_shape_domains_become_extension_types():
    over_delta1 = Ext("t", INTERVAL, TOP, Var("A"), BOT, TopeCase(()))
    arrow = resolved("Delta1 -> A", "A")
    assert alpha_eq(arrow, over_delta1)
    assert display_name(arrow.var).startswith("t_")
    assert resolved("(t : Delta1) -> A", "A") == over_delta1
    assert resolved("<Pi (t : Delta1) -> A []>", "A") == over_delta1
    p = CVar("p")
    assert resolved("(p : Delta2) -> A", "A") == Ext(
        "p", ProdCube(INTERVAL, INTERVAL), TLe(CSnd(p), CFst(p)), Var("A"),
        BOT, TopeCase(()))


def test_grouped_parameters_share_a_type_resolved_before_their_names():
    # in (B C : B) the type is the global B for both names, not the first
    # parameter of the group
    env = GlobalEnv()
    _, decl = elaborate_toplevels(parse_file(
        "def B : U := Unit\ndef f (B C : B) : U := U\n"), env)
    assert decl.telescope == (TypedParam("B", Const("B")), TypedParam("C", Const("B")))


def test_shape_domain_in_parentheses_and_hidden_shape():
    over_delta1 = Ext("t", INTERVAL, TOP, Var("A"), BOT, TopeCase(()))
    assert alpha_eq(resolved("(Delta1) -> A", "A"), over_delta1)
    assert resolved("(t : (Delta1)) -> A", "A") == over_delta1
    # a bound name hides the shape: the domain is that variable
    assert alpha_eq(resolved("\\Delta1. Delta1 -> A", "A"),
                    Lam("D", Pi("x", Var("D"), Var("A"))))


def test_extension_type_domain_is_read_like_a_binder_domain():
    # a shape in parentheses is a domain of an extension type as of a Π
    # binder, and the two forms give one type, which checks
    ext = resolved("<Pi (t : (Delta1)) -> A []>", "A")
    assert alpha_eq(ext, resolved("(t : (Delta1)) -> A", "A"))
    ctx = TriContext().bind_typed("A", U())
    assert Checker(GlobalEnv()).infer(ctx, ext) == (U(), ext)
    # a rejected domain gets the error of its name, in parentheses or not
    for src, col in (("<Pi (t : Delta1 A) -> A []>", 17), ("<Pi (t : (Delta1) A) -> A []>", 19)):
        with pytest.raises(ParseError) as e:
            resolved(src, "A")
        assert (e.value.message, e.value.col) == ("expected ')', found 'A'", col)
    for src in ("<Pi (t : A) -> A []>", "<Pi (t : (A)) -> A []>", "<Pi (t : ((A))) -> A []>"):
        with pytest.raises(ScopeError) as e:
            resolved(src, "A")
        start = src.index("A")
        assert (e.value.message, e.value.span) == (
            "an extension type needs a cube or shape domain", Span(start, start + 1))


def test_scope_error_in_tope_points_at_its_token():
    src = "\\t. [ t <= s |-> t ]"
    with pytest.raises(ScopeError) as e:
        parse_expr(src)
    assert e.value.message == "unbound variable 's' in tope"
    assert (e.value.span.start, e.value.span.end) == (src.index("s"), src.index("s") + 1)


def test_names_resolve_against_earlier_items_and_leave_env_unchanged():
    env = GlobalEnv()
    items = parse_file(PRELUDE + "def B : U := Unit\ndef C : U := B\n", env=env)
    assert [i.name for i in items] == ["Delta1", "Delta2", "B", "C"]
    assert items[-1].inner_body == Const("B")
    assert env.decls == {} and env.shapes == {}
    # the checker adds a declaration once it checks; these are added as parsed
    for decl in elaborate_toplevels(items, env):
        env.decls[decl.name] = decl
    with pytest.raises(ScopeError, match="redefinition of 'B'"):
        parse_file("def B : U := U\n", env=env)
    with pytest.raises(ScopeError, match="statement without a proof"):
        parse_file("thm s : U\ndef t : U := s\n")
