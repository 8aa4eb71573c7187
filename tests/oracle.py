"""Brute-force semantics for tope sequents, independent of the solver.

A sequent over interval variables is valid iff it holds in every weak order
of its variables together with the endpoints 0 < 1.  The oracle realizes
each weak order once, as an assignment of chain values: 0 and k + 1 to the
endpoints, and to the variables values in 0 .. k + 1 that take every
interior value 1 .. k.  Exhausting these assignments is a complete
decision procedure.  A truth table over all of them is a Python int used
as a bit mask, one bit per assignment; the table of each atom is computed
once.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from sstt.cube import CVar, CZero, COne
from sstt.tope import Sequent, TAnd, TBot, TEq, TLe, TOr, TTop, Tope


@lru_cache(maxsize=None)
def _assignments(n_vars: int) -> tuple[tuple[int, ...], ...]:
    """The assignment of each weak order of the variables, followed by the
    value k + 1 of the endpoint 1.  Each weak order of the first n - 1
    variables is extended by putting the last variable at a value of the
    chain, or at a new value v, which moves the values from v up by one."""
    if n_vars == 0:
        return ((1,),)
    rows = []
    for *row, top in _assignments(n_vars - 1):
        rows += [(*row, v, top) for v in range(top + 1)]
        rows += [(*[x + (x >= v) for x in row], v, top + 1) for v in range(1, top + 1)]
    return tuple(rows)


def _column(c, names: tuple[str, ...]) -> list[int]:
    """The value of a point under each assignment."""
    rows = _assignments(len(names))
    match c:
        case CZero():
            return [0] * len(rows)
        case COne():
            return [r[-1] for r in rows]
        case CVar(name):
            i = names.index(name)
            return [r[i] for r in rows]
    raise ValueError(f"oracle only handles interval points, got {c!r}")


@lru_cache(maxsize=None)
def _atom_mask(atom: Tope, names: tuple[str, ...]) -> int:
    holds = operator.le if isinstance(atom, TLe) else operator.eq
    left, right = _column(atom.left, names), _column(atom.right, names)
    return int("".join("1" if holds(x, y) else "0" for x, y in zip(left, right)), 2)


def _mask(t: Tope, names: tuple[str, ...]) -> int:
    """The set of assignments at which the tope holds."""
    match t:
        case TTop():
            return (1 << len(_assignments(len(names)))) - 1
        case TBot():
            return 0
        case TAnd(l, r):
            return _mask(l, names) & _mask(r, names)
        case TOr(l, r):
            return _mask(l, names) | _mask(r, names)
        case TLe() | TEq():
            return _atom_mask(t, names)
    raise ValueError(f"unknown tope {t!r}")


def oracle_entails(seq: Sequent) -> bool:
    names = tuple(n for n, _ in seq.ctx)
    return _mask(seq.hyp, names) & ~_mask(seq.goal, names) == 0
