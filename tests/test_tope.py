import random

import pytest
from hypothesis import given, settings, strategies as st

from generators import TYPED_CUBES, random_sequent, random_tope, random_typed_tope
from oracle import oracle_entails
from sstt.cube import (
    INTERVAL, CONE, CSTAR, CZERO, CFst, COne, CPair, CSnd, CStar, CVar, CZero, ProdCube,
    print_cube_type,
)
from sstt.parser import parse_sequent_source
from sstt.tope import (
    Sequent,
    Shape,
    TAnd,
    TBot,
    TEq,
    TLe,
    TOr,
    TTop,
    TopeError,
    entails,
    normalize_tope,
    print_tope,
    shape_included,
    subst_tope_sim,
    tope_and,
    tope_or,
)

T, S, V = CVar("t"), CVar("s"), CVar("u")
CTX1 = (("t", INTERVAL),)
CTX2 = (("t", INTERVAL), ("s", INTERVAL))
CTX3 = (("t", INTERVAL), ("s", INTERVAL), ("u", INTERVAL))


def holds(ctx, hyp, goal) -> bool:
    return entails(Sequent(ctx, hyp, goal)).yes


# -- the axiom schemas of the inequality logic


def test_schema_le_refl():
    assert holds(CTX1, TTop(), TLe(T, T))


def test_schema_le_antisym():
    assert holds(CTX2, TAnd(TLe(T, S), TLe(S, T)), TEq(T, S))


def test_schema_le_trans():
    assert holds(CTX3, TAnd(TLe(T, S), TLe(S, V)), TLe(T, V))


def test_schema_le_total():
    assert holds(CTX2, TTop(), TOr(TLe(T, S), TLe(S, T)))


def test_schema_zero_least():
    assert holds(CTX1, TTop(), TLe(CZERO, T))


def test_schema_one_greatest():
    assert holds(CTX1, TTop(), TLe(T, CONE))


def test_schema_endpoints_distinct():
    assert holds((), TEq(CZERO, CONE), TBot())


def test_schema_eq_le():
    assert holds(CTX2, TEq(T, S), TAnd(TLe(T, S), TLe(S, T)))


# -- counter-models


def test_counter_model_reported():
    res = entails(Sequent(CTX2, TTop(), TLe(T, S)))
    assert not res.yes
    assert res.counter_model is not None


def test_entailment_result_has_no_model():
    res = entails(Sequent(CTX1, TTop(), TLe(T, T)))
    assert res.yes and res.counter_model is None


def ranks(model) -> dict[str, int]:
    return {name: i for i, block in enumerate(model.blocks) for name in block}


def true_at(t, rank: dict[str, int]) -> bool:
    """Truth of a tope over interval variables when each point sits at its
    rank in a weak order."""
    def at(p):
        match p:
            case CZero():
                return rank["0"]
            case COne():
                return rank["1"]
            case CVar(name):
                return rank[name]

    match t:
        case TTop():
            return True
        case TBot():
            return False
        case TAnd(a, b):
            return true_at(a, rank) and true_at(b, rank)
        case TOr(a, b):
            return true_at(a, rank) or true_at(b, rank)
        case TLe(a, b):
            return at(a) <= at(b)
        case TEq(a, b):
            return at(a) == at(b)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_counter_models_refute_the_sequent(seed):
    rng = random.Random(seed)
    seq = random_sequent(rng, n_vars=rng.randint(1, 5), depth=rng.randint(1, 3))
    res = entails(seq)
    if res.yes:
        return
    blocks = res.counter_model.blocks
    atoms = {name for name, _ in seq.ctx}
    assert "0" in blocks[0] and set(blocks[0]) - {"0"} <= atoms
    assert "1" in blocks[-1] and set(blocks[-1]) - {"1"} <= atoms
    rank = ranks(res.counter_model)
    assert true_at(seq.hyp, rank) and not true_at(seq.goal, rank), str(seq)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_printed_sequent_parses_back(seed):
    rng = random.Random(seed)
    seq = random_sequent(rng, n_vars=rng.randint(1, 5), depth=rng.randint(1, 3))
    ctx = ", ".join(f"{n} : {print_cube_type(c)}" for n, c in seq.ctx)
    src = f"{ctx} | {print_tope(seq.hyp)} |- {print_tope(seq.goal)}"
    assert parse_sequent_source(src) == seq, src


def test_product_cube_types_print_and_parse_back():
    right = ProdCube(INTERVAL, ProdCube(INTERVAL, INTERVAL))
    left = ProdCube(ProdCube(INTERVAL, INTERVAL), INTERVAL)
    assert print_cube_type(right) == "2 * 2 * 2"
    assert print_cube_type(left) == "(2 * 2) * 2"
    for cube in (right, left):
        seq = parse_sequent_source(f"p : {print_cube_type(cube)} | TOP |- TOP")
        assert seq.ctx == (("p", cube),)


# -- the standard shapes

SQUARE = ProdCube(INTERVAL, INTERVAL)
P = CVar("p")
T1, T2 = CVar("t1"), CVar("t2")


def _shape(tope) -> Shape:
    # the defining tope is written over coordinates t1, t2 of the square
    tope = subst_tope_sim(tope, {"t1": CFst(P), "t2": CSnd(P)})
    return Shape("S", ("p",), SQUARE, tope)


def shape_delta2() -> Shape:
    return _shape(TLe(T2, T1))


def shape_boundary() -> Shape:
    return _shape(TOr(TEq(T2, CZERO), TOr(TEq(T1, T2), TEq(T1, CONE))))


def shape_horn() -> Shape:
    return _shape(TOr(TEq(T1, CONE), TEq(T2, CZERO)))


def test_horn_inside_boundary():
    assert shape_included(shape_horn(), shape_boundary()).yes


def test_boundary_inside_triangle():
    assert shape_included(shape_boundary(), shape_delta2()).yes


def test_horn_inside_triangle():
    assert shape_included(shape_horn(), shape_delta2()).yes


def test_strict_inclusions():
    assert not shape_included(shape_boundary(), shape_horn()).yes
    assert not shape_included(shape_delta2(), shape_boundary()).yes


def test_corpus_shape_inclusions(corpus_env):
    # the prelude's shapes name both coordinates of the square: {(t1, t2) : 2 * 2 | ...}
    shapes = corpus_env.shapes
    delta, boundary, horn = shapes["Delta2"], shapes["dDelta2"], shapes["Horn21"]
    assert delta.pattern == boundary.pattern == horn.pattern == ("t1", "t2")
    assert shape_included(horn, boundary).yes
    assert shape_included(boundary, delta).yes
    assert shape_included(horn, delta).yes
    res = shape_included(delta, boundary)
    assert not res.yes
    assert str(res.counter_model) == "0 < t2 < t1 < 1"


# -- simplices, boundaries and horns at twelve atoms


N = 12
TS = [CVar(f"t{i}") for i in range(1, N + 1)]
CTXN = tuple((t.name, INTERVAL) for t in TS)
SIMPLEX = tope_and(*(TLe(b, a) for a, b in zip(TS, TS[1:])))
FACES = [TEq(TS[0], CONE)] + [TEq(b, a) for a, b in zip(TS, TS[1:])] + [TEq(TS[-1], CZERO)]
BOUNDARY = TAnd(SIMPLEX, tope_or(*FACES))
HORN = TAnd(SIMPLEX, tope_or(*FACES[:-1]))  # the horn missing the last face


def test_boundary_inside_simplex_at_twelve_atoms():
    assert holds(CTXN, BOUNDARY, SIMPLEX)


def test_horn_inside_boundary_at_twelve_atoms():
    assert holds(CTXN, HORN, BOUNDARY)


def test_simplex_not_inside_boundary_at_twelve_atoms():
    res = entails(Sequent(CTXN, SIMPLEX, BOUNDARY))
    assert not res.yes
    rank = ranks(res.counter_model)
    assert true_at(SIMPLEX, rank)
    assert not any(true_at(face, rank) for face in FACES)


def test_tope_substitution_keeps_constants_and_rejects_a_non_tope():
    for t in (TTop(), TBot()):
        assert subst_tope_sim(t, {"t": CZERO}) is t
    # a point is not a tope: it is not handed back unsubstituted
    with pytest.raises(TypeError, match="not a tope: CVar"):
        subst_tope_sim(CVar("t"), {"t": CZERO})
    with pytest.raises(TypeError, match="not a tope: CVar"):
        subst_tope_sim(TAnd(TLe(T, CONE), CVar("t")), {"t": CZERO})


# -- normalization and point equality


def test_normalize_decomposes_pair_equality():
    ctx = {"p": SQUARE, "q": SQUARE}
    t = normalize_tope(ctx, TEq(CVar("p"), CVar("q")))
    assert isinstance(t, TAnd)


def test_normal_literals_and_connectives_come_back_as_themselves():
    ctx = {"t": INTERVAL, "s": INTERVAL, "p": SQUARE}
    le = TLe(T, CZERO)
    eq = TEq(CFst(P), S)  # a projection chain of interval type is normal
    both = TAnd(le, TOr(eq, TLe(CSnd(P), CONE)))
    for t in (le, eq, both, TTop(), TBot()):
        assert normalize_tope(ctx, t) is t
    # a literal with a point to normalize is rebuilt, and its normal
    # neighbours are shared
    out = normalize_tope(ctx, TAnd(le, TLe(CFst(CPair(T, S)), S)))
    assert out == TAnd(le, TLe(T, S)) and out.left is le and out.right.left is T


def _points_of(t):
    match t:
        case TAnd(a, b) | TOr(a, b):
            return _points_of(a) + _points_of(b)
        case TLe(a, b) | TEq(a, b):
            return [a, b]
    return []


def test_normalization_is_idempotent_by_identity():
    rng = random.Random(20261019)
    names = ["t1", "t2", "t3"]
    ctx = {n: INTERVAL for n in names}
    for _ in range(300):
        t = random_tope(rng, names, rng.randint(0, 3))
        assert normalize_tope(ctx, t) is t  # its points are interval atoms
    ctx = {f"c{i}": cube for i, cube in enumerate(TYPED_CUBES)}
    for _ in range(300):
        once = normalize_tope(ctx, random_typed_tope(rng, ctx, rng.randint(0, 3)))
        assert normalize_tope(ctx, once) is once
        assert not any(isinstance(p, (CPair, CStar)) for p in _points_of(once))


@pytest.mark.parametrize("tope, message", [
    (TLe(P, T), "order constraints only apply to points of the interval"),
    (TLe(CPair(T, T), T), "order constraints only apply to points of the interval"),
    (TEq(T, P), "equated points live in different cubes (2 and 2 * 2)"),
    (TEq(CPair(T, CSTAR), P), "equated points live in different cubes (2 * 1 and 2 * 2)"),
    (TLe(T, CVar("z")), "unbound cube variable 'z'"),
    (TEq(CFst(CPair(T, CVar("z"))), T), "unbound cube variable 'z'"),
    (TLe(CSnd(CFst(P)), T), "snd applied to point of non-product cube 2"),
])
def test_ill_typed_topes_keep_their_messages(tope, message):
    with pytest.raises(TopeError) as err:
        normalize_tope({"t": INTERVAL, "p": SQUARE}, tope)
    assert str(err.value) == message


def test_eq_under():
    # two points are equal under a hypothesis when it entails their equality
    assert holds(CTX1, TEq(T, CZERO), TEq(T, CZERO))
    assert not holds(CTX1, TTop(), TEq(T, CZERO))
    # an equality of pairs holds componentwise
    p, square = CVar("p"), ProdCube(INTERVAL, INTERVAL)
    hyp = TAnd(TEq(CFst(p), CZERO), TEq(CSnd(p), CONE))
    assert holds((("p", square),), hyp, TEq(p, CPair(CZERO, CONE)))
    assert not holds((("p", square),), TEq(CFst(p), CZERO), TEq(p, CPair(CZERO, CONE)))


def test_unsatisfiable():
    # a hypothesis is unsatisfiable iff it entails BOT
    assert holds(CTX1, TAnd(TEq(T, CZERO), TEq(T, CONE)), TBot())
    assert not holds(CTX1, TEq(T, CZERO), TBot())


# -- agreement with the brute-force valuation oracle


def test_random_sequents_match_oracle():
    rng = random.Random(20260823)
    for _ in range(500):
        seq = random_sequent(rng, n_vars=3, depth=2)
        assert entails(seq).yes == oracle_entails(seq), str(seq)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_agreement_property(seed):
    rng = random.Random(seed)
    seq = random_sequent(rng, n_vars=rng.randint(1, 4), depth=rng.randint(1, 3))
    assert entails(seq).yes == oracle_entails(seq), str(seq)


def shared_prefix_sequent(rng: random.Random) -> Sequent:
    """A sequent over three to six atoms whose hypothesis conjoins literals
    ``C`` with two to four disjunctions, in some order, or is
    ``C /\\ (D1 \\/ ... \\/ Dk)`` or ``(C /\\ (D \\/ E)) \\/ F``; so its DNF
    disjuncts share the literals of ``C`` and the choices made on the
    disjunctions before them.  The goal often follows from ``C`` alone."""
    names = [f"t{i}" for i in range(1, rng.randint(3, 6) + 1)]
    literals = lambda k: [random_tope(rng, names, 0) for _ in range(k)]
    common = literals(rng.randint(1, 4))
    ds = [tope_and(*literals(rng.randint(1, 2))) for _ in range(rng.randint(2, 4))]
    shape = rng.randrange(3)
    if shape == 0:
        hyp = TAnd(tope_and(*common), tope_or(*ds))
    elif shape == 1:
        hyp = TOr(TAnd(tope_and(*common), tope_or(*ds[:2])), tope_or(*ds[2:] or ds[:1]))
    else:
        conjuncts = common + [tope_or(*[tope_and(*literals(rng.randint(1, 2)))
                                        for _ in range(rng.randint(2, 3))])
                              for _ in ds]
        rng.shuffle(conjuncts)
        hyp = tope_and(*conjuncts)
    goal = random_tope(rng, names, 2)
    if rng.random() < 0.5:  # weaken the goal by a literal of C
        goal = TOr(goal, rng.choice(common))
    return Sequent(tuple((n, INTERVAL) for n in names), hyp, goal)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_disjuncts_with_a_shared_prefix_match_oracle(seed):
    seq = shared_prefix_sequent(random.Random(seed))
    res = entails(seq)
    assert res.yes == oracle_entails(seq), str(seq)
    if not res.yes:
        rank = ranks(res.counter_model)
        assert true_at(seq.hyp, rank) and not true_at(seq.goal, rank), str(seq)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_entailment_monotone_in_hypothesis(seed):
    # strengthening the hypothesis preserves entailment
    rng = random.Random(seed)
    names = ["t1", "t2", "t3"]
    ctx = tuple((n, INTERVAL) for n in names)
    hyp = random_tope(rng, names, 2)
    extra = random_tope(rng, names, 1)
    goal = random_tope(rng, names, 2)
    if entails(Sequent(ctx, hyp, goal)).yes:
        assert entails(Sequent(ctx, TAnd(hyp, extra), goal)).yes


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_entailment_reflexive_and_transitive(seed):
    rng = random.Random(seed)
    names = ["t1", "t2"]
    ctx = tuple((n, INTERVAL) for n in names)
    a = random_tope(rng, names, 2)
    b = random_tope(rng, names, 2)
    c = random_tope(rng, names, 2)
    assert entails(Sequent(ctx, a, a)).yes
    if entails(Sequent(ctx, a, b)).yes and entails(Sequent(ctx, b, c)).yes:
        assert entails(Sequent(ctx, a, c)).yes
