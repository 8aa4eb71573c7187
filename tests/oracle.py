"""Brute-force semantics for tope sequents, independent of the solver.

A sequent over interval variables is valid iff it holds under every
assignment of chain values to its variables.  A chain with n + 2 points
realizes every weak order of n variables together with the endpoints, so
exhausting the assignments into such a chain is a complete decision
procedure.  A truth table over all assignments is a Python int used as a bit
mask, one bit per assignment; the table of each atom is computed once.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from sstt.cube import CVar, CZero, COne
from sstt.tope import Sequent, TAnd, TBot, TEq, TLe, TOr, TTop, Tope


@lru_cache(maxsize=None)
def _assignments(n_vars: int, points: int) -> tuple[tuple[int, ...], ...]:
    """Every assignment of chain values 0 .. points - 1 to the variables."""
    return tuple(itertools.product(range(points), repeat=n_vars))


def _column(c, names: tuple[str, ...], points: int) -> list[int]:
    """The value of a point under each assignment."""
    rows = _assignments(len(names), points)
    match c:
        case CZero():
            return [0] * len(rows)
        case COne():
            return [points - 1] * len(rows)
        case CVar(name):
            i = names.index(name)
            return [r[i] for r in rows]
    raise ValueError(f"oracle only handles interval points, got {c!r}")


@lru_cache(maxsize=None)
def _atom_mask(atom: Tope, names: tuple[str, ...], points: int) -> int:
    holds = operator.le if isinstance(atom, TLe) else operator.eq
    left, right = _column(atom.left, names, points), _column(atom.right, names, points)
    return int("".join("1" if holds(x, y) else "0" for x, y in zip(left, right)), 2)


def _mask(t: Tope, names: tuple[str, ...], points: int) -> int:
    """The set of assignments at which the tope holds."""
    match t:
        case TTop():
            return (1 << len(_assignments(len(names), points))) - 1
        case TBot():
            return 0
        case TAnd(l, r):
            return _mask(l, names, points) & _mask(r, names, points)
        case TOr(l, r):
            return _mask(l, names, points) | _mask(r, names, points)
        case TLe() | TEq():
            return _atom_mask(t, names, points)
    raise ValueError(f"unknown tope {t!r}")


def oracle_entails(seq: Sequent) -> bool:
    names = tuple(n for n, _ in seq.ctx)
    points = max(5, len(names) + 2)
    return _mask(seq.hyp, names, points) & ~_mask(seq.goal, names, points) == 0
