"""Pinned verdicts and counter-models of the tope solver.

``counter_models.txt`` holds one line per sequent: the printed sequent, the
verdict (``holds`` or ``fails``) and the counter-model as ``str`` prints it
(``-`` when the sequent holds), separated by tabs.  The sequents are the
simplex, boundary, horn and chain sequents at n = 1..8 and 300 seeded random
sequents.  Any change to the solver must decide every one of them the same
way and name the same counter-model, atom order and tie-breaking included.
"""

from __future__ import annotations

import random
from pathlib import Path

from generators import random_sequent
from sstt.cube import CONE, CZERO, CVar, INTERVAL, print_cube_type
from sstt.tope import (
    TOP, Sequent, TAnd, TEq, TLe, TOr, Tope, entails, print_tope,
)

PINNED = Path(__file__).with_name("counter_models.txt")
RANDOM_SEED = 20261019
RANDOM_COUNT = 300


def _fold(op, ts: list[Tope]) -> Tope:
    acc = ts[0]
    for t in ts[1:]:
        acc = op(acc, t)
    return acc


def shape_sequents(n: int) -> list[Sequent]:
    """Over t1..tn: the boundary of the n-simplex 1 >= t1 >= ... >= tn >= 0
    inside the simplex, the horn (all faces but tn = 0) inside the boundary,
    the simplex inside its boundary (which fails), and a chain of n - 1
    inequalities entailing its end-to-end one."""
    v = [CVar(f"t{i}") for i in range(1, n + 1)]
    ctx = tuple((p.name, INTERVAL) for p in v)
    simplex = _fold(TAnd, [TLe(v[i + 1], v[i]) for i in range(n - 1)] or [TOP])
    faces = ([TEq(v[0], CONE)]
             + [TEq(v[i + 1], v[i]) for i in range(n - 1)]
             + [TEq(v[-1], CZERO)])
    boundary = TAnd(simplex, _fold(TOr, faces))
    horn = TAnd(simplex, _fold(TOr, faces[:-1]))
    chain = _fold(TAnd, [TLe(v[i], v[i + 1]) for i in range(n - 1)] or [TOP])
    return [Sequent(ctx, boundary, simplex), Sequent(ctx, horn, boundary),
            Sequent(ctx, simplex, boundary), Sequent(ctx, chain, TLe(v[0], v[-1]))]


def pinned_sequents() -> list[Sequent]:
    out = [seq for n in range(1, 9) for seq in shape_sequents(n)]
    rng = random.Random(RANDOM_SEED)
    for _ in range(RANDOM_COUNT):
        out.append(random_sequent(rng, n_vars=rng.randint(1, 5), depth=rng.randint(1, 3)))
    return out


def print_sequent(seq: Sequent) -> str:
    ctx = ", ".join(f"{n} : {print_cube_type(c)}" for n, c in seq.ctx)
    return f"{ctx} | {print_tope(seq.hyp)} |- {print_tope(seq.goal)}"


def decided_line(seq: Sequent) -> str:
    res = entails(seq)
    model = "-" if res.counter_model is None else str(res.counter_model)
    return "\t".join((print_sequent(seq), "holds" if res.yes else "fails", model))


def test_verdicts_and_counter_models_are_pinned():
    expected = PINNED.read_text().splitlines()
    sequents = pinned_sequents()
    assert len(expected) == len(sequents) == 8 * 4 + RANDOM_COUNT
    for seq, line in zip(sequents, expected):
        assert decided_line(seq) == line
