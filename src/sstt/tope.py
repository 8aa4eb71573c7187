r"""Second layer: topes, and the decision procedure for tope entailment.

A tope is a positive formula (top, bottom, conjunction, disjunction,
inequality, strict equality) over interval-valued points of a cube context.
Negation, implication and quantifiers do not exist in this layer.

The models of the theory are valuations of the interval atoms into a bounded
total order with distinct endpoints, so ``Xi | Phi |- psi`` holds iff no
total order satisfies ``Phi`` and falsifies ``psi``.  The procedure searches
for such an order.  The root closes the literals of every top-level conjunct
of the hypothesis whose DNF has a single alternative, together with 0 < 1
and 0 <= x <= 1, into a partial order on the points, kept as bit sets; one
with no alternative refutes the hypothesis at once.  The DNF of each other
conjunct is a level of alternatives, walked depth first in the order
written: a node closes one alternative of each level so far, and a node
whose closure puts a point strictly above itself is dropped.  At a leaf,
every level is closed, and the solver tries to falsify the goal with a
small tableau: not (A \/ B) adds both negations, not (A /\ B) branches,
not (x <= y) adds y < x, and not (x === y) branches on x < y or y < x.
Obligations that do not branch go first, and a branch is dropped once its
closure is contradictory.  A surviving branch is a counter-model: the weak
order of its points, 0 in the bottom block and 1 in the top.  Closing and
checking a branch takes time polynomial in the number of points.  Each walk
node popped and each tableau branch pushed is one step of the ``fuel`` of
``entails``; past it, or at a DNF wider than it, ``OutOfFuel`` is raised.

Disjuncts that take the same alternatives on the first levels share the
node that closed them.  Before a node branches, the negated goal is
settled on its order; if it closes there without branching, every leaf
below would close at its root, so the node is dropped.  Closure does not
depend on the order in which literals are added, and a stronger order
closes every branch a weaker one closes, so the leaves are reached in DNF
order, with the same branches: verdicts, counter-models and the tableau
steps are as if each disjunct were closed from scratch.  Sorting the
levels would reorder the leaves, and so change the counter-models.

``bench/tracer.py`` wraps ``entails``, ``normalize_tope``, ``dnf`` and
``cube.normalize_cube`` by their names, and the benchmark requires calls
of each when deciding a sequent; so ``entails`` calls ``normalize_tope``
and ``dnf`` by those names, and ``normalize_tope`` calls ``normalize_cube``
for every point.

``normalize_tope`` is the one well-formedness check for topes: it types
and normalizes each point of every inequality and equality in one walk
(``cube.normalize_cube``), reads the point's cube off its normal form, and
raises ``TopeError`` on an ill-typed one.  Normal parts are shared: a point,
literal or connective that is already normal comes back as the very node,
so normalizing a normal tope returns it; ``subst_tope_sim`` shares alike.
Free variables and α-equivalence of topes are ``core``'s term walkers'.
The printer of this layer lives here too: ``print_tope`` writes a tope in
the surface syntax, its points through ``cube.print_cube_expr``.  The
solver numbers the atoms in the order they first occur and prints none of
them to decide a sequent; only a counter-model prints its atoms, which
name them and order them there.
"""

from __future__ import annotations

from operator import is_
from typing import Optional, Union

from .cube import (
    CubeContext,
    CubeExpr,
    COne,
    CPair,
    CStar,
    CVar,
    CZero,
    CubeError,
    Node,
    cube_of_normal,
    normalize_cube,
    print_cube_expr,
    print_cube_type,
    split_cube,
    split_point,
    subst_cube_sim,
)

DEFAULT_FUEL = 10_000  # steps per declaration, or per sequent decided alone


class TopeError(Exception):
    """Ill-scoped or ill-typed tope."""


class OutOfFuel(TopeError):
    """A sequent took more steps, or a DNF more disjuncts, than its fuel."""

    def __init__(self, fuel: int):
        super().__init__(f"deciding topes did not finish within {fuel} steps; "
                         "the sequent may require a larger --fuel bound")


# ---------------------------------------------------------------------------
# Tope syntax

class TTop(Node):
    __slots__ = ()


class TBot(Node):
    __slots__ = ()


class TAnd(Node):
    __slots__ = __match_args__ = ("left", "right")


class TOr(Node):
    __slots__ = __match_args__ = ("left", "right")


class TLe(Node):
    __slots__ = __match_args__ = ("left", "right")


class TEq(Node):
    __slots__ = __match_args__ = ("left", "right")


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
    """Simultaneous substitution of cube points for cube variables.  A tope
    none of whose parts changed comes back as the very node."""
    cls = t.__class__
    if cls is TLe or cls is TEq:
        a, b = subst_cube_sim(t.left, mapping), subst_cube_sim(t.right, mapping)
    elif cls is TAnd or cls is TOr:
        a, b = subst_tope_sim(t.left, mapping), subst_tope_sim(t.right, mapping)
    elif cls is TTop or cls is TBot:
        return t
    else:
        raise TypeError(f"not a tope: {t!r}")
    return t if a is t.left and b is t.right else cls(a, b)


# ---------------------------------------------------------------------------
# Shapes and sequents

class Shape(Node):
    """A named sub-shape {pattern : cube | tope} of a cube.  The pattern
    names the components of a point of a right-nested product, one variable
    for the whole cube if it has a single entry."""

    __slots__ = __match_args__ = ("name", "pattern", "cube", "tope", "span")

    def applied_to(self, point: CubeExpr) -> Tope:
        comps = split_point(point, len(self.pattern))
        return subst_tope_sim(self.tope, dict(zip(self.pattern, comps)))


class Sequent(Node):
    """Entailment judgment: cube context, hypothesis tope, goal tope."""

    __slots__ = __match_args__ = ("ctx", "hyp", "goal")

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
    componentwise.  After this, every TLe/TEq argument is an interval atom.
    A literal or connective whose parts come back unchanged comes back as
    itself, so a normal tope is its own normal form."""
    cls = t.__class__
    if cls is TLe or cls is TEq:
        try:
            a, b = normalize_cube(ctx, t.left), normalize_cube(ctx, t.right)
        except CubeError as err:
            raise TopeError(str(err)) from None
        if a.__class__ not in _TUPLES and b.__class__ not in _TUPLES:
            return t if a is t.left and b is t.right else cls(a, b)
        if cls is TLe:
            raise TopeError("order constraints only apply to points of the interval")
        ta, tb = cube_of_normal(a), cube_of_normal(b)
        if ta != tb:
            raise TopeError("equated points live in different cubes "
                            f"({print_cube_type(ta)} and {print_cube_type(tb)})")
        return _eq_components(a, b)
    if cls is TAnd or cls is TOr:
        parts = _operands(t, cls)
        normal = [normalize_tope(ctx, s) for s in parts]
        if all(map(is_, normal, parts)):
            return t
        return tope_and(*normal) if cls is TAnd else tope_or(*normal)
    if cls is TTop or cls is TBot:
        return t
    raise TopeError(f"not a tope: {t!r}")


# the normal forms of points outside the interval
_TUPLES = (CPair, CStar)


def _eq_components(a: CubeExpr, b: CubeExpr) -> Tope:
    if isinstance(a, CStar) or isinstance(b, CStar):
        return TOP
    if isinstance(a, CPair) and isinstance(b, CPair):
        return tope_and(_eq_components(a.fst, b.fst), _eq_components(a.snd, b.snd))
    return TEq(a, b)


# ---------------------------------------------------------------------------
# DNF

def dnf(t: Tope, fuel: int = DEFAULT_FUEL) -> list[list[Tope]]:
    """Disjunctive normal form: a list of disjuncts, each a list of atomic
    literals (TLe/TEq).  An unsatisfiable literal TBot kills its disjunct; an
    empty disjunct list means the tope is equivalent to BOT.  More than
    ``fuel`` disjuncts raise ``OutOfFuel``."""
    cls = t.__class__
    if cls is TLe or cls is TEq:
        return [[t]]
    if cls is TAnd:
        out = [[]]
        for s in _operands(t, TAnd):
            if s.__class__ is TLe or s.__class__ is TEq:
                for x in out:  # each a list of its own
                    x.append(s)
                continue
            ds = dnf(s, fuel)
            if len(out) * len(ds) > fuel:
                raise OutOfFuel(fuel)
            out = [x + y for x in out for y in ds]
        return out
    if cls is TOr:
        out = []
        for s in _operands(t, TOr):
            out += dnf(s, fuel)
            if len(out) > fuel:
                raise OutOfFuel(fuel)
        return out
    if cls is TTop:
        return [[]]
    if cls is TBot:
        return []
    raise TopeError(f"not a tope: {t!r}")


# ---------------------------------------------------------------------------
# Weak orders

class WeakOrder(Node):
    """A total preorder on the atoms together with 0 and 1, reported as an
    ordered partition (blocks of tied atoms, listed from bottom to top)."""

    __slots__ = __match_args__ = ("blocks",)

    def __str__(self) -> str:
        return " < ".join(" = ".join(block) for block in self.blocks)


class EntailResult(Node):
    __slots__ = __match_args__ = ("yes", "counter_model", "steps")

    def __bool__(self) -> bool:
        return self.yes


def _number_atoms(ts: list[Tope]) -> tuple[dict[int, int], list[CubeExpr]]:
    """Number the points of normal topes: 0 and 1, then the distinct atoms
    in the order of their first occurrence, left to right, which are
    returned in that order.  The numbers are keyed by the ``id`` of each
    point node of the topes, which stay alive while they are decided, so
    that only the first sight of a node hashes it."""
    index: dict[int, int] = {}
    seen: dict[CubeExpr, int] = {}
    todo = ts[::-1]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is TAnd or cls is TOr:
            todo += (t.right, t.left)
        elif cls is TLe or cls is TEq:
            for e in (t.left, t.right):
                k = id(e)
                if k in index:
                    continue
                kind = e.__class__
                if kind is CZero or kind is COne:
                    index[k] = 1 if kind is COne else 0
                else:
                    index[k] = seen.setdefault(e, 2 + len(seen))
    return index, list(seen)


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


def _root_order(n_points: int) -> tuple[list[int], list[int]]:
    """The partial order 0 < 1 with 0 <= x <= 1 for every atom x."""
    up = [(1 << n_points) - 1, 0b10] + [(1 << p) | 0b10 for p in range(2, n_points)]
    above = [0b10] + [0] * (n_points - 1)
    return up, above


def _close(up: list[int], above: list[int], literals: list[Tope],
           index: dict[int, int]) -> bool:
    """Add the literals to the order; False if they make it contradictory."""
    for lit in literals:
        a, b = index[id(lit.left)], index[id(lit.right)]
        if not _assume(up, above, a, b, False) or (
                lit.__class__ is TEq and not _assume(up, above, b, a, False)):
            return False
    return True


# ---------------------------------------------------------------------------
# Refutation search
#
# The negated goal is compiled into a conjunction (a list) of obligations.
# An obligation is a pair (a, b), which demands a < b, or a choice: a list of
# alternatives, each itself a conjunction.  None stands for falsity.

def _negate(t: Tope, index: dict[int, int]) -> Optional[list]:
    """The obligations of ``not t``; models are total orders, so not (x <= y)
    is y < x and not (x === y) is x < y or y < x."""
    cls = t.__class__
    if cls is TLe:
        return [(index[id(t.right)], index[id(t.left)])]
    if cls is TEq:
        a, b = index[id(t.left)], index[id(t.right)]
        return [[[(a, b)], [(b, a)]]]
    if cls is TOr:
        out: list = []
        for s in _operands(t, TOr):
            ns = _negate(s, index)
            if ns is None:
                return None
            out += ns
        return out
    if cls is TAnd:
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
    if cls is TTop:
        return None
    if cls is TBot:
        return []
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
                met = True
                for o in alt:
                    if type(o) is list:
                        met = False
                    elif up[o[1]] >> o[0] & 1:
                        break  # refuted
                    elif met and not above[o[0]] >> o[1] & 1:
                        met = False
                else:
                    if met:
                        break  # the choice is met
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


def _weak_order(up: list[int], atoms: list[CubeExpr]) -> WeakOrder:
    """The counter-model of a surviving branch: points with equal up-sets
    are tied, and a larger up-set lies lower.  Sorting by size extends the
    partial order to a total one; it is stable, and points are grouped in
    the order of their names (0, 1, then the atoms sorted by name, ties by
    first occurrence), so blocks of one size are ordered by name."""
    names = ["0", "1"] + [print_cube_expr(e) for e in atoms]
    classes: dict[int, list[str]] = {}
    for p in [0, 1] + sorted(range(2, len(names)), key=names.__getitem__):
        classes.setdefault(up[p], []).append(names[p])
    ordered = sorted(classes.items(), key=lambda item: -item[0].bit_count())
    return WeakOrder(tuple(tuple(sorted(block)) for _, block in ordered))


def entails(seq: Sequent, fuel: int = DEFAULT_FUEL) -> EntailResult:
    """Decide the sequent within ``fuel`` steps, or raise ``OutOfFuel``.
    Yes iff the goal holds in every model of the hypothesis; otherwise one
    violating weak order is returned.  The result counts the steps taken."""
    ctx = seq.cube_context()
    hyp = normalize_tope(ctx, seq.hyp)
    goal = normalize_tope(ctx, seq.goal)
    # a DNF disjunct of the hypothesis takes one alternative of each conjunct:
    # single ones are closed at the root, the others are levels, as written
    levels = [dnf(c, fuel) for c in _operands(hyp, TAnd)]
    root = [lit for alts in levels if len(alts) == 1 for lit in alts[0]]
    levels = [alts for alts in levels if len(alts) != 1]
    index, atoms = _number_atoms([hyp, goal])
    negated = _negate(goal, index)
    if negated is None or [] in levels:  # a goal TOP, or a conjunct BOT
        return EntailResult(True, None, 0)
    steps = 0  # walk nodes popped and tableau branches pushed
    # a node is the number of levels it has closed, its parent's order and
    # the alternative that it adds to a copy of that order
    nodes = [(0, *_root_order(2 + len(atoms)), root)]
    while nodes:
        depth, up, above, alt = nodes.pop()
        steps += 1
        if steps > fuel:
            raise OutOfFuel(fuel)
        up, above = up[:], above[:]
        if not _close(up, above, alt, index):
            continue
        if depth < len(levels):
            # a stronger order closes every branch that a weaker one
            # closes, so if the negated goal closes here without branching,
            # every leaf below would close at its root
            if _settle(up[:], above[:], list(negated)) is not None:
                nodes += [(depth + 1, up, above, alt) for alt in reversed(levels[depth])]
            continue
        stack = [(up, above, list(negated))]
        while stack:
            up, above, todo = stack.pop()
            choices = _settle(up, above, todo)
            if choices is None:
                continue
            if not choices:
                return EntailResult(False, _weak_order(up, atoms), steps)
            first, rest = choices[0], choices[1:]
            steps += len(first)
            if steps > fuel:
                raise OutOfFuel(fuel)
            for alt in reversed(first):
                stack.append((up[:], above[:], rest + alt))
    return EntailResult(True, None, steps)


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

