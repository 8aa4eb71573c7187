r"""Second layer: topes, and the decision procedure for tope entailment.

A tope is a positive formula (top, bottom, conjunction, disjunction,
inequality, strict equality) over interval-valued points of a cube context.
Negation, implication and quantifiers do not exist in this layer.

The models of the theory are valuations of the interval atoms into a bounded
total order with distinct endpoints, so ``Xi | Phi |- psi`` holds iff no
total order satisfies ``Phi`` and falsifies ``psi``.  The procedure searches
for such an order.  It DNF-expands the hypothesis and closes each disjunct's
literals, together with 0 < 1 and 0 <= x <= 1, into a partial order on the
points, kept as bit sets; a disjunct whose closure puts a point strictly
above itself is unsatisfiable.  It then tries to falsify the goal with a
small tableau: not (A \/ B) adds both negations, not (A /\ B) branches,
not (x <= y) adds y < x, and not (x === y) branches on x < y or y < x.
Obligations that do not branch go first, and a branch is dropped as soon as
its closure is contradictory.  A surviving branch is a counter-model, read
off as the weak order of its points: 0 in the bottom block, 1 in the top.
Closing and checking one branch takes time polynomial in the number of
points; the DNF disjuncts and the tableau branches are each bounded by
``MAX_DISJUNCTS``.

``normalize_tope`` is the one well-formedness check for topes: it
type-checks the points of every inequality and equality and raises
``TopeError`` on an ill-typed one.  The printer of this layer lives here
too: ``print_tope`` writes a tope in the surface syntax, its points through
``cube.print_cube_expr``, which also names the atoms of a counter-model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .cube import (
    CONE,
    CZERO,
    CubeContext,
    CubeExpr,
    CubeType,
    COne,
    CPair,
    CStar,
    CVar,
    CZero,
    CubeError,
    Interval,
    Node,
    cube_free_vars,
    cube_type_of,
    normalize_cube,
    print_cube_expr,
    print_cube_type,
    split_cube,
    split_point,
    subst_cube_sim,
)

if TYPE_CHECKING:
    from .core import Span

MAX_DISJUNCTS = 4096


class TopeError(Exception):
    """Ill-scoped or ill-typed tope."""


class TopeTooLargeError(TopeError):
    """The DNF or the refutation search exceeded MAX_DISJUNCTS branches."""


# ---------------------------------------------------------------------------
# Tope syntax

class TTop(Node):
    __slots__ = ()


class TBot(Node):
    __slots__ = ()


class TAnd(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Tope, right: Tope):
        self.left = left
        self.right = right
        self._hash = None


class TOr(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Tope, right: Tope):
        self.left = left
        self.right = right
        self._hash = None


class TLe(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: CubeExpr, right: CubeExpr):
        self.left = left
        self.right = right
        self._hash = None


class TEq(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: CubeExpr, right: CubeExpr):
        self.left = left
        self.right = right
        self._hash = None


Tope = Union[TTop, TBot, TAnd, TOr, TLe, TEq]

TOP = TTop()
BOT = TBot()


def print_tope(t: Tope, env: dict[str, str] | None = None, level: int = 0) -> str:
    """Levels: 0 disjunction, 1 conjunction, 2 atom."""
    env = env or {}
    match t:
        case TTop():
            return "TOP"
        case TBot():
            return "BOT"
        case TOr(a, b):
            s = f"{print_tope(a, env, 0)} \\/ {print_tope(b, env, 1)}"
            return f"({s})" if level > 0 else s
        case TAnd(a, b):
            s = f"{print_tope(a, env, 1)} /\\ {print_tope(b, env, 2)}"
            return f"({s})" if level > 1 else s
        case TLe(a, b):
            return f"{print_cube_expr(a, env)} <= {print_cube_expr(b, env)}"
        case TEq(a, b):
            return f"{print_cube_expr(a, env)} === {print_cube_expr(b, env)}"
    raise TypeError(f"not a tope: {t!r}")


def tope_and(*ts: Tope) -> Tope:
    acc: Tope = TOP
    for t in ts:
        if isinstance(t, TTop):
            continue
        acc = t if isinstance(acc, TTop) else TAnd(acc, t)
    return acc


def tope_or(*ts: Tope) -> Tope:
    acc: Tope = BOT
    for t in ts:
        if isinstance(t, TBot):
            continue
        acc = t if isinstance(acc, TBot) else TOr(acc, t)
    return acc


def subst_tope_sim(t: Tope, mapping: dict[str, CubeExpr]) -> Tope:
    """Simultaneous substitution of cube points for cube variables."""
    match t:
        case TAnd(a, b):
            return TAnd(subst_tope_sim(a, mapping), subst_tope_sim(b, mapping))
        case TOr(a, b):
            return TOr(subst_tope_sim(a, mapping), subst_tope_sim(b, mapping))
        case TLe(a, b):
            return TLe(subst_cube_sim(a, mapping), subst_cube_sim(b, mapping))
        case TEq(a, b):
            return TEq(subst_cube_sim(a, mapping), subst_cube_sim(b, mapping))
        case _:
            return t


def subst_tope(t: Tope, name: str, value: CubeExpr) -> Tope:
    """Substitute the point ``value`` for the cube variable ``name``."""
    return subst_tope_sim(t, {name: value})


def tope_free_vars(t: Tope) -> set[str]:
    match t:
        case TAnd(a, b) | TOr(a, b):
            return tope_free_vars(a) | tope_free_vars(b)
        case TLe(a, b) | TEq(a, b):
            return cube_free_vars(a) | cube_free_vars(b)
        case _:
            return set()


# ---------------------------------------------------------------------------
# Shapes and sequents

class Shape(Node):
    """A named sub-shape {pattern : cube | tope} of a cube.  The pattern
    names the components of a point of a right-nested product, one variable
    for the whole cube if it has a single entry."""

    __slots__ = __match_args__ = ("name", "pattern", "cube", "tope", "span")

    def __init__(self, name: str, pattern: tuple[str, ...], cube: CubeType,
                 tope: Tope, span: Optional[Span] = None):
        self.name = name
        self.pattern = pattern
        self.cube = cube
        self.tope = tope
        self.span = span
        self._hash = None

    def applied_to(self, point: CubeExpr) -> Tope:
        comps = split_point(point, len(self.pattern))
        return subst_tope_sim(self.tope, dict(zip(self.pattern, comps)))


class Sequent(Node):
    """Entailment judgment: cube context, hypothesis tope, goal tope."""

    __slots__ = __match_args__ = ("ctx", "hyp", "goal")

    def __init__(self, ctx: tuple[tuple[str, CubeType], ...], hyp: Tope, goal: Tope):
        self.ctx = ctx
        self.hyp = hyp
        self.goal = goal
        self._hash = None

    def cube_context(self) -> CubeContext:
        return dict(self.ctx)


# ---------------------------------------------------------------------------
# Normalization: reduce every inequality/equality to interval atoms

def _operands(t: Tope, kind: type) -> list[Tope]:
    """The operands of the run of ``kind`` nodes at ``t``, left to right.
    The run is walked with a stack, so that a long chain of one connective
    does not recurse; only nesting of the two connectives does."""
    out: list[Tope] = []
    todo = [t]
    while todo:
        s = todo.pop()
        if type(s) is kind:
            todo += (s.right, s.left)
        else:
            out.append(s)
    return out


def normalize_tope(ctx: CubeContext, t: Tope) -> Tope:
    """Normalize cube arguments; equalities at product/unit cubes decompose
    componentwise.  After this, every TLe/TEq argument is an interval atom."""
    match t:
        case TTop() | TBot():
            return t
        case TAnd():
            return tope_and(*(normalize_tope(ctx, s) for s in _operands(t, TAnd)))
        case TOr():
            return tope_or(*(normalize_tope(ctx, s) for s in _operands(t, TOr)))
        case TLe(a, b):
            ta, tb = _cube_types(ctx, a, b)
            if not isinstance(ta, Interval) or not isinstance(tb, Interval):
                raise TopeError("order constraints only apply to points of the interval")
            return TLe(normalize_cube(ctx, a), normalize_cube(ctx, b))
        case TEq(a, b):
            ta, tb = _cube_types(ctx, a, b)
            if ta != tb:
                raise TopeError("equated points live in different cubes "
                                f"({print_cube_type(ta)} and {print_cube_type(tb)})")
            return _eq_components(normalize_cube(ctx, a), normalize_cube(ctx, b))
    raise TopeError(f"not a tope: {t!r}")


def _cube_types(ctx: CubeContext, a: CubeExpr, b: CubeExpr) -> tuple[CubeType, CubeType]:
    try:
        return cube_type_of(ctx, a), cube_type_of(ctx, b)
    except CubeError as err:
        raise TopeError(str(err)) from None


def _eq_components(a: CubeExpr, b: CubeExpr) -> Tope:
    if isinstance(a, CStar) or isinstance(b, CStar):
        return TOP
    if isinstance(a, CPair) and isinstance(b, CPair):
        return tope_and(_eq_components(a.fst, b.fst), _eq_components(a.snd, b.snd))
    return TEq(a, b)


# ---------------------------------------------------------------------------
# DNF

def dnf(t: Tope) -> list[list[Tope]]:
    """Disjunctive normal form: a list of disjuncts, each a list of atomic
    literals (TLe/TEq).  An unsatisfiable literal TBot kills its disjunct; an
    empty disjunct list means the tope is equivalent to BOT."""
    match t:
        case TTop():
            return [[]]
        case TBot():
            return []
        case TLe(_, _) | TEq(_, _):
            return [[t]]
        case TOr():
            out = []
            for s in _operands(t, TOr):
                out += dnf(s)
                if len(out) > MAX_DISJUNCTS:
                    raise TopeTooLargeError(f"tope too large: more than {MAX_DISJUNCTS} disjuncts")
            return out
        case TAnd():
            out = [[]]
            for s in _operands(t, TAnd):
                ds = dnf(s)
                if len(out) * len(ds) > MAX_DISJUNCTS:
                    raise TopeTooLargeError(f"tope too large: more than {MAX_DISJUNCTS} disjuncts")
                out = [x + y for x in out for y in ds]
            return out
    raise TopeError(f"not a tope: {t!r}")


# ---------------------------------------------------------------------------
# Weak orders

class WeakOrder(Node):
    """A total preorder on the atoms together with 0 and 1, reported as an
    ordered partition (blocks of tied atoms, listed from bottom to top)."""

    __slots__ = __match_args__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        self.blocks = blocks
        self._hash = None

    def __str__(self) -> str:
        return " < ".join(" = ".join(block) for block in self.blocks)

    def rank(self, name: str) -> int:
        for i, block in enumerate(self.blocks):
            if name in block:
                return i
        raise KeyError(name)


class EntailResult(Node):
    __slots__ = __match_args__ = ("yes", "counter_model")

    def __init__(self, yes: bool, counter_model: Optional[WeakOrder] = None):
        self.yes = yes
        self.counter_model = counter_model
        self._hash = None

    def __bool__(self) -> bool:
        return self.yes


def _collect_atoms(ts: list[Tope]) -> list[CubeExpr]:
    atoms: list[CubeExpr] = []
    seen: set[CubeExpr] = set()
    todo = ts[::-1]
    while todo:
        match todo.pop():
            case TAnd(a, b) | TOr(a, b):
                todo += (b, a)
            case TLe(a, b) | TEq(a, b):
                for e in (a, b):
                    if not isinstance(e, (CZero, COne)) and e not in seen:
                        seen.add(e)
                        atoms.append(e)
    atoms.sort(key=print_cube_expr)
    return atoms


# ---------------------------------------------------------------------------
# Partial orders on points
#
# Points are numbered 0 (the endpoint 0), 1 (the endpoint 1), then the atoms.
# A partial order is two lists of bit sets: up[p] holds the points known to
# be >= p (p included) and above[p] the points known to be > p.

def _assume(up: list[int], above: list[int], a: int, b: int, strict: bool) -> bool:
    """Add a <= b (a < b if strict) and close the order transitively.
    False if that puts some point strictly above itself."""
    if (above if strict else up)[a] >> b & 1:
        return True
    if (up if strict else above)[b] >> a & 1:
        return False
    bit = 1 << a
    ub, ab = up[b], above[b]
    for p, u in enumerate(up):
        if u & bit:
            up[p] = u | ub
            above[p] |= ub if strict or above[p] & bit else ab
    return True


def _close_disjunct(disjunct: list[Tope], index: dict[CubeExpr, int],
                    n_points: int) -> Optional[tuple[list[int], list[int]]]:
    """The partial order of a DNF disjunct, with 0 < 1 and 0 <= x <= 1 for
    every atom x; None if the disjunct is unsatisfiable."""
    up = [(1 << n_points) - 1, 0b10] + [(1 << p) | 0b10 for p in range(2, n_points)]
    above = [0b10] + [0] * (n_points - 1)
    for lit in disjunct:
        a, b = index[lit.left], index[lit.right]
        if not _assume(up, above, a, b, False):
            return None
        if isinstance(lit, TEq) and not _assume(up, above, b, a, False):
            return None
    return up, above


# ---------------------------------------------------------------------------
# Refutation search
#
# The negated goal is compiled into a conjunction (a list) of obligations.
# An obligation is a pair (a, b), which demands a < b, or a choice: a list of
# alternatives, each itself a conjunction.  None stands for falsity.

def _negate(t: Tope, index: dict[CubeExpr, int]) -> Optional[list]:
    """The obligations of ``not t``; models are total orders, so not (x <= y)
    is y < x and not (x === y) is x < y or y < x."""
    match t:
        case TTop():
            return None
        case TBot():
            return []
        case TLe(x, y):
            return [(index[y], index[x])]
        case TEq(x, y):
            a, b = index[x], index[y]
            return [[[(a, b)], [(b, a)]]]
        case TOr():
            out: list = []
            for s in _operands(t, TOr):
                ns = _negate(s, index)
                if ns is None:
                    return None
                out += ns
            return out
        case TAnd():
            alts: list = []
            for side in [_negate(s, index) for s in _operands(t, TAnd)]:
                if side is None:
                    continue
                if not side:
                    return []
                if len(side) == 1 and type(side[0]) is list:
                    alts += side[0]
                else:
                    alts.append(side)
            if not alts:
                return None
            return alts[0] if len(alts) == 1 else [alts]
    raise TopeError(f"not a tope: {t!r}")


def _settle(up: list[int], above: list[int], todo: list) -> Optional[list]:
    """Add every pair obligation, then drop the alternatives the order
    already refutes and the choices it already meets, until no choice has
    a single alternative left.  Returns the open choices, or None if the
    branch closes."""
    choices: list = []
    while True:
        while todo:
            item = todo.pop()
            if type(item) is list:
                choices.append(item)
            elif not _assume(up, above, item[0], item[1], True):
                return None
        open_choices = []
        for alts in choices:
            live = []
            for alt in alts:
                if all(type(o) is tuple and above[o[0]] >> o[1] & 1 for o in alt):
                    break
                if not any(type(o) is tuple and up[o[1]] >> o[0] & 1 for o in alt):
                    live.append(alt)
            else:
                if not live:
                    return None
                if len(live) == 1:
                    todo += live[0]
                else:
                    open_choices.append(live)
        choices = open_choices
        if not todo:
            return choices


def _weak_order(up: list[int], names: list[str]) -> WeakOrder:
    """The counter-model of a surviving branch: points with equal up-sets
    are tied, and a larger up-set lies lower.  Sorting by size extends the
    partial order to a total one."""
    classes: dict[int, list[str]] = {}
    for name, u in zip(names, up):
        classes.setdefault(u, []).append(name)
    ordered = sorted(classes.items(), key=lambda item: -item[0].bit_count())
    return WeakOrder(tuple(tuple(sorted(block)) for _, block in ordered))


def entails(seq: Sequent) -> EntailResult:
    """Decide the sequent.  Yes iff the goal holds in every model of the
    hypothesis; otherwise one violating weak order is returned."""
    ctx = seq.cube_context()
    hyp = normalize_tope(ctx, seq.hyp)
    goal = normalize_tope(ctx, seq.goal)
    disjuncts = dnf(hyp)
    atoms = _collect_atoms([hyp, goal])
    index: dict[CubeExpr, int] = {CZERO: 0, CONE: 1}
    for i, a in enumerate(atoms):
        index[a] = i + 2
    negated = _negate(goal, index)
    if negated is None:
        return EntailResult(True)
    names = ["0", "1"] + [print_cube_expr(a) for a in atoms]
    branches = 0
    for disjunct in disjuncts:
        order = _close_disjunct(disjunct, index, len(names))
        if order is None:
            continue
        stack = [(*order, list(negated))]
        while stack:
            up, above, todo = stack.pop()
            choices = _settle(up, above, todo)
            if choices is None:
                continue
            if not choices:
                return EntailResult(False, _weak_order(up, names))
            first, rest = choices[0], choices[1:]
            branches += len(first)
            if branches > MAX_DISJUNCTS:
                raise TopeTooLargeError(
                    f"tope too large: more than {MAX_DISJUNCTS} refutation branches")
            for alt in reversed(first):
                stack.append((up[:], above[:], rest + alt))
    return EntailResult(True)


# ---------------------------------------------------------------------------
# Derived queries

def shape_included(sub: Shape, sup: Shape) -> EntailResult:
    """Is ``sub`` a sub-shape of ``sup``?  Both must carve the same cube.
    The sequent is stated over the variables of ``sub``'s pattern."""
    if sub.cube != sup.cube:
        raise TopeError("shape cubes differ: "
                        f"{print_cube_type(sub.cube)} vs {print_cube_type(sup.cube)}")
    try:
        factors = split_cube(sub.cube, len(sub.pattern))
    except CubeError as err:
        raise TopeError(str(err)) from None
    point: CubeExpr = CVar(sub.pattern[-1])
    for var in reversed(sub.pattern[:-1]):
        point = CPair(CVar(var), point)
    seq = Sequent(tuple(zip(sub.pattern, factors)), sub.tope, sup.applied_to(point))
    return entails(seq)


def tope_unsatisfiable(ctx: CubeContext, hyp: Tope) -> bool:
    return entails(Sequent(tuple(sorted(ctx.items())), hyp, BOT)).yes
