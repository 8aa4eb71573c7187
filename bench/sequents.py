"""Tope sequents for the benchmark, and the known answers they are checked
against.  Nothing here imports sstt.

A tope is a tuple: ``("top",)``, ``("bot",)``, ``("le", p, q)``,
``("eq", p, q)``, ``("and", a, b)`` or ``("or", a, b)``, where a point is
``"0"``, ``"1"`` or a variable name.  ``render`` writes the surface syntax
that ``sstt tope`` reads, bracketing every compound operand so that the
parsed tope has the same tree.
"""

from __future__ import annotations

import itertools
import random

TOP = ("top",)


def render(t) -> str:
    match t:
        case ("top",):
            return "TOP"
        case ("bot",):
            return "BOT"
        case ("le", p, q):
            return f"{p} <= {q}"
        case ("eq", p, q):
            return f"{p} === {q}"
        case (op, a, b):
            sep = " /\\ " if op == "and" else " \\/ "
            return sep.join(f"({render(x)})" if x[0] in ("and", "or") else render(x)
                            for x in (a, b))
    raise ValueError(f"not a tope: {t!r}")


def sequent_text(names, hyp, goal) -> str:
    ctx = ", ".join(f"{n} : 2" for n in names)
    return f"{ctx} | {render(hyp)} |- {render(goal)}"


def conj(ts):
    ts = list(ts)
    return _fold("and", ts) if ts else TOP


def disj(ts):
    return _fold("or", list(ts))


def _fold(op, ts):
    acc = ts[0]
    for t in ts[1:]:
        acc = (op, acc, t)
    return acc


def holds_at(t, value) -> bool:
    """Truth of ``t`` when point ``p`` has the number ``value(p)``."""
    match t:
        case ("top",):
            return True
        case ("bot",):
            return False
        case ("le", p, q):
            return value(p) <= value(q)
        case ("eq", p, q):
            return value(p) == value(q)
        case ("and", a, b):
            return holds_at(a, value) and holds_at(b, value)
        case ("or", a, b):
            return holds_at(a, value) or holds_at(b, value)
    raise ValueError(f"not a tope: {t!r}")


# ---------------------------------------------------------------------------
# tope-shapes: simplices, boundaries and horns (Riehl-Shulman, section 2)

def shape_cases(n: int) -> list[dict]:
    """Four sequents over n interval variables whose answers follow from
    the construction.  Delta^n is 1 >= t1 >= ... >= tn >= 0; its faces are
    t1 = 1, t(i+1) = ti, and tn = 0; the horn Lambda^n_n drops the last."""
    v = [f"t{i}" for i in range(1, n + 1)]
    simplex = conj(("le", v[i + 1], v[i]) for i in range(n - 1))
    faces = ([("eq", v[0], "1")]
             + [("eq", v[i + 1], v[i]) for i in range(n - 1)]
             + [("eq", v[-1], "0")])
    boundary = ("and", simplex, disj(faces))
    horn = ("and", simplex, disj(faces[:-1]))
    chain = conj(("le", v[i], v[i + 1]) for i in range(n - 1))
    cases = [
        ("boundary-in-simplex", boundary, simplex, True),
        ("horn-in-boundary", horn, boundary, True),
        ("simplex-in-boundary", simplex, boundary, False),
        ("chain", chain, ("le", v[0], v[-1]), True),
    ]
    return [{"name": f"n{n}-{name}", "text": sequent_text(v, hyp, goal),
             "hyp": hyp, "goal": goal, "holds": holds}
            for name, hyp, goal, holds in cases]


def refutes(model: str, hyp, goal) -> bool:
    """Does the counter-model, written as blocks of tied points from bottom
    to top (``0 < t2 = t1 < 1``), satisfy ``hyp`` and falsify ``goal``?"""
    rank = {}
    for i, block in enumerate(model.split(" < ")):
        for name in block.split(" = "):
            rank[name.strip()] = i
    if rank.get("0") != 0 or rank.get("1") != max(rank.values()):
        return False
    try:
        return holds_at(hyp, rank.__getitem__) and not holds_at(goal, rank.__getitem__)
    except KeyError:
        return False


# ---------------------------------------------------------------------------
# tope-random: seeded random sequents and a brute-force valuation oracle

def random_tope(rng: random.Random, names: list[str], depth: int):
    points = ["0", "1"] + names
    if depth <= 0 or rng.random() < 0.4:
        return (rng.choice(("le", "eq")), rng.choice(points), rng.choice(points))
    return (rng.choice(("and", "or")), random_tope(rng, names, depth - 1),
            random_tope(rng, names, depth - 1))


def random_batch(seed: int, size: int) -> list[dict]:
    """``size`` distinct sequents, in equal numbers over 3, 4 and 5
    variables at depths 3 and 4, in a seeded order.  Fixing the mix keeps
    the batch's cost from depending on the seed."""
    rng = random.Random(seed)
    classes = list(itertools.product((3, 4, 5), (3, 4)))
    out, seen = [], set()
    for i in range(size):
        n, depth = classes[i % len(classes)]
        names = [f"t{j}" for j in range(1, n + 1)]
        while True:
            hyp, goal = random_tope(rng, names, depth), random_tope(rng, names, depth)
            text = sequent_text(names, hyp, goal)
            if text not in seen:
                break
        seen.add(text)
        out.append({"text": text, "n": n, "hyp": hyp, "goal": goal})
    rng.shuffle(out)
    return out


class Oracle:
    """Decides a sequent over n variables by evaluating it at every
    valuation into the chain 0 < 1 < ... < n + 1, with the endpoints 0 and
    1 sent to its ends.  Such a chain realizes every weak order of the
    variables and the endpoints, so this is complete.  Truth tables over all
    valuations are kept as bit masks."""

    def __init__(self):
        self._valuations = {}
        self._masks = {}

    def _column(self, n, p):
        vals = self._valuations.get(n)
        if vals is None:
            vals = self._valuations[n] = list(itertools.product(range(n + 2), repeat=n))
        if p == "0":
            return [0] * len(vals)
        if p == "1":
            return [n + 1] * len(vals)
        i = int(p[1:]) - 1
        return [v[i] for v in vals]

    def _mask(self, n, t) -> int:
        match t:
            case ("top",):
                return (1 << (n + 2) ** n) - 1
            case ("bot",):
                return 0
            case ("and", a, b):
                return self._mask(n, a) & self._mask(n, b)
            case ("or", a, b):
                return self._mask(n, a) | self._mask(n, b)
        key = (n, t)
        mask = self._masks.get(key)
        if mask is None:
            rel, p, q = t
            cmp = (lambda x, y: x <= y) if rel == "le" else (lambda x, y: x == y)
            bits = "".join("1" if cmp(x, y) else "0"
                           for x, y in zip(self._column(n, p), self._column(n, q)))
            mask = self._masks[key] = int(bits, 2)
        return mask

    def holds(self, n: int, hyp, goal) -> bool:
        return self._mask(n, hyp) & ~self._mask(n, goal) == 0
