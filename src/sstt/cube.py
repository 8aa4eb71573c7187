"""First layer: cubes.

Cube types are generated from the interval ``2`` and the one-point cube ``1``
by finite products.  Points of a cube are built from variables, the endpoints
``0`` and ``1``, pairing, projections and the unique point of ``1``.

Every well-typed point has a *tuple normal form*: projections are pushed
through pairs and variables of product type are eta-expanded, so a normal
point of a product cube is a tuple whose leaves are interval-valued atoms
(``0``, ``1``, or a projection chain applied to a variable).
``normalize_cube`` types a point and normalizes it in one walk; the cube of
a normal point can be read off its shape, so ``cube_type_of`` is that walk
too.  ``subst_cube_sim`` hands back a point none of whose parts changed; the
free variables and α-equivalence of points are ``core``'s term walkers'.

The printers of this layer live here: ``print_cube_type`` and
``print_cube_expr`` write cube types and points in the surface syntax, and
every message that shows a cube goes through them.  ``tope.print_tope`` and
``printer.print_expr`` build on them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Union


class CubeError(Exception):
    """Ill-scoped or ill-typed cube expression."""


# ---------------------------------------------------------------------------
# Syntax nodes

class Node:
    """Base of the immutable syntax nodes of every layer.

    A subclass lists its fields in ``__slots__`` and ``__match_args__``, and
    is given an ``__init__`` that takes them in that order (by position or by
    keyword, ``span`` defaulting to None), sets each, and sets ``_hash =
    None``; nothing assigns to a node afterwards.  A class writes its own
    ``__init__`` only to do more than that: to give other defaults or to
    validate a field.  Two nodes are equal iff they have the same class and
    equal fields, ``span`` aside.  The hash is of the same fields, computed
    on first use and kept.  The repr shows the compared fields, as
    ``Name(field=value, ...)``.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    _key = staticmethod(lambda node: ())

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__match_args__ if f != "span")
        if cls._fields:
            cls._key = attrgetter(*cls._fields)
        if cls.__match_args__ and "__init__" not in cls.__dict__:
            cls.__init__ = _field_init(cls)

    def __init__(self) -> None:
        self._hash = None

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.__class__, self._key(self)))
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"


def _field_init(cls: type) -> Callable[..., None]:
    """The ``__init__`` of a node class with fields.  It is compiled from
    source, as ``collections.namedtuple`` does, so that it runs the same
    bytecode as one written out by hand, and under a name of its own class,
    so that profiles and tracebacks tell the constructors apart."""
    fields = cls.__match_args__
    params = ", ".join("span=None" if f == "span" else f for f in fields)
    body = "".join(f"    self.{f} = {f}\n" for f in fields)
    src = f"def __init__(self, {params}):\n{body}    self._hash = None\n"
    namespace = {}
    exec(compile(src, f"<{cls.__name__}.__init__>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__name__}.__init__"
    init.__module__ = cls.__module__
    return init


# ---------------------------------------------------------------------------
# Cube types

class Interval(Node):
    __slots__ = ()


class UnitCube(Node):
    __slots__ = ()


class ProdCube(Node):
    __slots__ = __match_args__ = ("left", "right")


CubeType = Union[Interval, UnitCube, ProdCube]

INTERVAL = Interval()
UNIT_CUBE = UnitCube()


# ---------------------------------------------------------------------------
# Cube expressions

class CVar(Node):
    __slots__ = __match_args__ = ("name",)


class CZero(Node):
    __slots__ = ()


class COne(Node):
    __slots__ = ()


class CStar(Node):
    """The unique point of the one-point cube."""

    __slots__ = ()


class CPair(Node):
    __slots__ = __match_args__ = ("fst", "snd")


class CFst(Node):
    __slots__ = __match_args__ = ("arg",)


class CSnd(Node):
    __slots__ = __match_args__ = ("arg",)


CubeExpr = Union[CVar, CZero, COne, CStar, CPair, CFst, CSnd]

CZERO = CZero()
CONE = COne()
CSTAR = CStar()


# ---------------------------------------------------------------------------
# Printing, in the surface syntax

def display_name(name: str) -> str:
    """Printable form of a possibly-freshened name."""
    return name.replace("$", "_")


def print_cube_type(t: CubeType) -> str:
    """Products associate to the right, so only a left factor that is itself
    a product is parenthesized."""
    match t:
        case Interval():
            return "2"
        case UnitCube():
            return "1"
        case ProdCube(a, b):
            left = print_cube_type(a)
            if isinstance(a, ProdCube):
                left = f"({left})"
            return f"{left} * {print_cube_type(b)}"
    raise TypeError(f"not a cube type: {t!r}")


def print_cube_expr(c: CubeExpr, env: dict[str, str] | None = None,
                    atom: bool = False) -> str:
    """``env`` renames variables; ``atom`` parenthesizes a projection."""
    env = env or {}
    match c:
        case CVar(n):
            return env.get(n, display_name(n))
        case CZero():
            return "0"
        case COne():
            return "1"
        case CStar():
            return "star"
        case CPair(a, b):
            return f"({print_cube_expr(a, env)}, {print_cube_expr(b, env)})"
        case CFst(a):
            s = f"fst {print_cube_expr(a, env, atom=True)}"
            return f"({s})" if atom else s
        case CSnd(a):
            s = f"snd {print_cube_expr(a, env, atom=True)}"
            return f"({s})" if atom else s
    raise TypeError(f"not a cube expression: {c!r}")


# ---------------------------------------------------------------------------
# Typing and normalization

CubeContext = dict[str, CubeType]


def cube_type_of(ctx: CubeContext, e: CubeExpr) -> CubeType:
    """Infer the cube type of ``e`` in ``ctx``; raises CubeError if ill-typed."""
    return cube_of_normal(_normal(ctx, e))


def normalize_cube(ctx: CubeContext, e: CubeExpr) -> CubeExpr:
    """Tuple normal form of ``e``, typed and normalized in one walk.

    Projections are evaluated on pairs, variables are eta-expanded at product
    type, and every point of the one-point cube collapses to ``star``, so the
    normal form of a point of a product cube is a ``CPair`` of normal forms,
    and ``cube_of_normal`` reads the point's cube off it.  An ill-typed point
    raises CubeError with the message of ``cube_type_of``.  A point that is
    already normal comes back as the very node: an endpoint, ``star``, a
    variable or projection chain of interval type, or a pair of such points.

    ``bench/tracer.py`` wraps this function by its name, so other modules
    call it by that name, and its own walk and ``cube_type_of`` go through
    ``_normal``.
    """
    return _normal(ctx, e)


def _normal(ctx: CubeContext, e: CubeExpr) -> CubeExpr:
    cls = e.__class__
    if cls is CVar:
        ty = _lookup(ctx, e.name)
        return e if ty.__class__ is Interval else _expand(e, ty)
    if cls is CZero or cls is COne or cls is CStar:
        return e
    if cls is CFst or cls is CSnd:
        # peel the projections off, then type them from the inside out
        firsts = []
        base = e
        while cls is CFst or cls is CSnd:
            firsts.append(cls is CFst)
            base = base.arg
            cls = base.__class__
        if cls is CVar:
            ty = _lookup(ctx, base.name)
            for first in reversed(firsts):
                if ty.__class__ is not ProdCube:
                    raise _non_product(first, ty)
                ty = ty.left if first else ty.right
            return _expand(e, ty)
        point = _normal(ctx, base)
        for first in reversed(firsts):
            if point.__class__ is not CPair:
                raise _non_product(first, cube_of_normal(point))
            point = point.fst if first else point.snd
        return point
    if cls is CPair:
        a, b = _normal(ctx, e.fst), _normal(ctx, e.snd)
        return e if a is e.fst and b is e.snd else CPair(a, b)
    raise CubeError(f"not a cube expression: {e!r}")


def _lookup(ctx: CubeContext, name: str) -> CubeType:
    ty = ctx.get(name)
    if ty is None:
        raise CubeError(f"unbound cube variable {name!r}")
    return ty


def _non_product(first: bool, ty: CubeType) -> CubeError:
    return CubeError(f"{'fst' if first else 'snd'} applied to point of "
                     f"non-product cube {print_cube_type(ty)}")


def _expand(e: CubeExpr, ty: CubeType) -> CubeExpr:
    """The normal form of ``e``, a variable or projection chain of cube
    ``ty``: itself at the interval, a tuple of its projections at a product."""
    cls = ty.__class__
    if cls is Interval:
        return e
    if cls is UnitCube:
        return CSTAR
    return CPair(_expand(CFst(e), ty.left), _expand(CSnd(e), ty.right))


def cube_of_normal(p: CubeExpr) -> CubeType:
    """The cube of a point in tuple normal form: a pair lives in a product,
    ``star`` in the one-point cube, and every other normal point in ``2``."""
    cls = p.__class__
    if cls is CPair:
        return ProdCube(cube_of_normal(p.fst), cube_of_normal(p.snd))
    return UNIT_CUBE if cls is CStar else INTERVAL


def split_point(point: CubeExpr, k: int) -> list[CubeExpr]:
    """Split a point of a right-nested k-fold product into components."""
    out: list[CubeExpr] = []
    for _ in range(k - 1):
        out.append(CFst(point))
        point = CSnd(point)
    out.append(point)
    return out


def split_cube(cube: CubeType, k: int) -> list[CubeType]:
    """The factors of a right-nested k-fold product cube."""
    out: list[CubeType] = []
    for _ in range(k - 1):
        if not isinstance(cube, ProdCube):
            raise CubeError(
                f"pattern has {k} components but the cube is not a {k}-fold product")
        out.append(cube.left)
        cube = cube.right
    out.append(cube)
    return out


def subst_cube_sim(e: CubeExpr, mapping: dict[str, CubeExpr]) -> CubeExpr:
    """Simultaneous substitution of cube points for cube variables.  A point
    none of whose parts changed comes back as the very node."""
    cls = e.__class__
    if cls is CVar:
        return mapping.get(e.name, e)
    if cls is CPair:
        a, b = subst_cube_sim(e.fst, mapping), subst_cube_sim(e.snd, mapping)
        return e if a is e.fst and b is e.snd else CPair(a, b)
    if cls is CFst or cls is CSnd:
        a = subst_cube_sim(e.arg, mapping)
        return e if a is e.arg else cls(a)
    if cls is CZero or cls is COne or cls is CStar:
        return e
    raise TypeError(f"not a cube point: {e!r}")
