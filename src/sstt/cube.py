"""First layer: cubes.

Cube types are generated from the interval ``2`` and the one-point cube ``1``
by finite products.  Points of a cube are built from variables, the endpoints
``0`` and ``1``, pairing, projections and the unique point of ``1``.

Every well-typed point has a *tuple normal form*: projections are pushed
through pairs and variables of product type are eta-expanded, so a normal
point of a product cube is a tuple whose leaves are interval-valued atoms
(``0``, ``1``, or a projection chain applied to a variable).

The printers of this layer live here: ``print_cube_type`` and
``print_cube_expr`` write cube types and points in the surface syntax, and
every message that shows a cube goes through them.  ``tope.print_tope`` and
``printer.print_expr`` build on them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Union


class CubeError(Exception):
    """Ill-scoped or ill-typed cube expression."""


# ---------------------------------------------------------------------------
# Syntax nodes

class Node:
    """Base of the immutable syntax nodes of every layer.

    A subclass lists its fields in ``__slots__`` and ``__match_args__``, in
    the order of its ``__init__`` parameters, and its ``__init__`` sets each
    of them and ``_hash = None``; nothing assigns to a node afterwards.  Two
    nodes are equal iff they have the same class and equal fields, ``span``
    aside.  The hash is of the same fields, computed on first use and kept.
    The repr shows the compared fields, as ``Name(field=value, ...)``.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    _key = staticmethod(lambda node: ())

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__match_args__ if f != "span")
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

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


# ---------------------------------------------------------------------------
# Cube types

class Interval(Node):
    __slots__ = ()


class UnitCube(Node):
    __slots__ = ()


class ProdCube(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: CubeType, right: CubeType):
        self.left = left
        self.right = right
        self._hash = None


CubeType = Union[Interval, UnitCube, ProdCube]

INTERVAL = Interval()
UNIT_CUBE = UnitCube()


# ---------------------------------------------------------------------------
# Cube expressions

class CVar(Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = None


class CZero(Node):
    __slots__ = ()


class COne(Node):
    __slots__ = ()


class CStar(Node):
    """The unique point of the one-point cube."""

    __slots__ = ()


class CPair(Node):
    __slots__ = __match_args__ = ("fst", "snd")

    def __init__(self, fst: CubeExpr, snd: CubeExpr):
        self.fst = fst
        self.snd = snd
        self._hash = None


class CFst(Node):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: CubeExpr):
        self.arg = arg
        self._hash = None


class CSnd(Node):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: CubeExpr):
        self.arg = arg
        self._hash = None


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
    match e:
        case CVar(name):
            if name not in ctx:
                raise CubeError(f"unbound cube variable {name!r}")
            return ctx[name]
        case CZero() | COne():
            return INTERVAL
        case CStar():
            return UNIT_CUBE
        case CPair(a, b):
            return ProdCube(cube_type_of(ctx, a), cube_type_of(ctx, b))
        case CFst(a):
            t = cube_type_of(ctx, a)
            if not isinstance(t, ProdCube):
                raise CubeError(
                    f"fst applied to point of non-product cube {print_cube_type(t)}")
            return t.left
        case CSnd(a):
            t = cube_type_of(ctx, a)
            if not isinstance(t, ProdCube):
                raise CubeError(
                    f"snd applied to point of non-product cube {print_cube_type(t)}")
            return t.right
    raise CubeError(f"not a cube expression: {e!r}")


def normalize_cube(ctx: CubeContext, e: CubeExpr) -> CubeExpr:
    """Tuple normal form of ``e``.

    Projections are evaluated on pairs, variables are eta-expanded at product
    type, and every point of the one-point cube collapses to ``star``.  The
    result of normalizing a point of a product cube is always a ``CPair`` of
    normal forms.
    """
    ty = cube_type_of(ctx, e)
    return _normalize(ctx, e, ty)


def _normalize(ctx: CubeContext, e: CubeExpr, ty: CubeType) -> CubeExpr:
    if isinstance(ty, UnitCube):
        return CSTAR
    if isinstance(ty, ProdCube):
        return CPair(
            _normalize(ctx, _proj(e, True), ty.left),
            _normalize(ctx, _proj(e, False), ty.right),
        )
    # interval type: chase projections down to an atom
    match e:
        case CVar(_) | CZero() | COne():
            return e
        case CFst(a):
            inner = _normalize_head(ctx, a)
            if isinstance(inner, CPair):
                return _normalize(ctx, inner.fst, ty)
            return CFst(inner)
        case CSnd(a):
            inner = _normalize_head(ctx, a)
            if isinstance(inner, CPair):
                return _normalize(ctx, inner.snd, ty)
            return CSnd(inner)
    raise CubeError(f"cannot normalize {e!r} at interval type")


def _normalize_head(ctx: CubeContext, e: CubeExpr) -> CubeExpr:
    """Expose a pair at the head of a product-typed expression when possible."""
    match e:
        case CPair(_, _):
            return e
        case CFst(a):
            inner = _normalize_head(ctx, a)
            return _normalize_head(ctx, _proj(inner, True)) if isinstance(inner, CPair) else CFst(inner)
        case CSnd(a):
            inner = _normalize_head(ctx, a)
            return _normalize_head(ctx, _proj(inner, False)) if isinstance(inner, CPair) else CSnd(inner)
        case _:
            return e


def _proj(e: CubeExpr, first: bool) -> CubeExpr:
    if isinstance(e, CPair):
        return e.fst if first else e.snd
    return CFst(e) if first else CSnd(e)


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
    """Simultaneous substitution of cube points for cube variables."""
    match e:
        case CVar(n):
            return mapping.get(n, e)
        case CPair(a, b):
            return CPair(subst_cube_sim(a, mapping), subst_cube_sim(b, mapping))
        case CFst(a):
            return CFst(subst_cube_sim(a, mapping))
        case CSnd(a):
            return CSnd(subst_cube_sim(a, mapping))
        case _:
            return e


def cube_free_vars(e: CubeExpr) -> set[str]:
    match e:
        case CVar(n):
            return {n}
        case CPair(a, b):
            return cube_free_vars(a) | cube_free_vars(b)
        case CFst(a) | CSnd(a):
            return cube_free_vars(a)
        case _:
            return set()
