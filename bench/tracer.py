"""Span tracer for the benchmark's traced runs.

The tracer measures sstt from the outside: it replaces public functions and
``Checker`` methods with wrappers that record a span (name, start, end,
parent) around each call.  Modules import functions such as ``entails`` or
``parse_file`` by name, so a wrapper is rebound in every ``sstt`` module that
holds the original, not only where it is defined.

A call made directly inside an open span of the same name (plain recursion)
is folded into that span, so ``calls`` counts entries into a layer from
elsewhere.  A layer's self time is its spans' time minus the time covered by
their child spans.  Spans are kept in memory; ``summary`` aggregates them
after the traced work has finished.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _tokens(src):
    from sstt.parser import lex

    return len(lex(src))


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, note)
        self._stack: list = []  # (name, span index) of open spans
        self._undo: list = []   # (owner, attribute, original)

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((name, index))
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                note(args, result) if note else None)

        return traced

    def _rebind(self, owner, attr, name, note=None):
        """Wrap ``owner.attr`` and rebind every alias of it in sstt."""
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, note)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.split(".")[0] == "sstt":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        import sstt.checker
        import sstt.core
        import sstt.cube
        import sstt.parser
        import sstt.printer
        import sstt.scope
        import sstt.tope

        Checker = sstt.checker.Checker
        self._rebind(sstt.parser, "parse_file", "parser",
                     lambda a, r: a[0])
        self._rebind(sstt.parser, "parse_sequent_source", "parser",
                     lambda a, r: a[0])
        self._rebind(sstt.scope, "elaborate_toplevels", "scope",
                     lambda a, r: len(r) if r is not None else 0)
        self._rebind(Checker, "check_decl", "checker.check_decl",
                     lambda a, r: a[0].steps)
        self._rebind(Checker, "infer", "checker.infer")
        self._rebind(Checker, "whnf", "checker.whnf")
        self._rebind(Checker, "equal", "checker.equal")
        self._rebind(sstt.core, "subst_typed", "core.subst")
        self._rebind(sstt.core, "subst_cube", "core.subst")
        self._rebind(sstt.core, "free_vars", "core.free_vars")
        self._rebind(sstt.tope, "entails", "tope.entails",
                     lambda a, r: (a[0], None if r is None else bool(r)))
        self._rebind(sstt.tope, "normalize_tope", "tope.normalize")
        self._rebind(sstt.tope, "dnf", "tope.dnf",
                     lambda a, r: len(r) if r is not None else 0)
        self._rebind(sstt.cube, "normalize_cube", "cube.normalize")
        self._rebind(sstt.printer, "print_expr", "printer")
        self._rebind(sstt.printer, "print_tope", "printer")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-span-name calls and self time, plus the counts each layer
        adds.  Shares are left as numerator and denominator so that runs
        over several processes can be added up."""
        if self._undo:
            raise RuntimeError("summary() needs the tracer uninstalled")
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
        out = {"calls": dict(calls), "self_s": dict(self_s)}
        out.update(self._notes())
        return out

    def _notes(self) -> dict:
        from sstt.tope import normalize_tope

        tokens = 0
        decls = 0
        fuel = []
        widths = []
        seen = set()
        repeats = refuted = 0
        atoms_max = 0
        by_atoms = defaultdict(float)
        for name, start, end, _, note in self.spans:
            if name == "parser":
                tokens += _tokens(note)
            elif name == "scope":
                decls += note
            elif name == "checker.check_decl":
                fuel.append(note)
            elif name == "tope.dnf":
                widths.append(note)
            elif name == "tope.entails":
                seq, holds = note
                ctx = seq.cube_context()
                key = (normalize_tope(ctx, seq.hyp), normalize_tope(ctx, seq.goal))
                repeats += key in seen
                seen.add(key)
                refuted += holds is False
                n = len(_atoms(key))
                atoms_max = max(atoms_max, n)
                by_atoms[n] += end - start
        return {
            "tokens": tokens,
            "decls": decls,
            "fuel_total": sum(fuel),
            "fuel_max": max(fuel, default=0),
            "dnf_width_max": max(widths, default=0),
            "entails_repeats": repeats,
            "entails_refuted": refuted,
            "atoms_max": atoms_max,
            "entails_s_by_atoms": {str(k): v for k, v in by_atoms.items()},
        }


def _atoms(topes) -> set:
    """Distinct interval atoms (points other than 0 and 1) of normalized
    topes."""
    from sstt.cube import COne, CZero
    from sstt.tope import TAnd, TEq, TLe, TOr

    found = set()
    todo = list(topes)
    while todo:
        t = todo.pop()
        if isinstance(t, (TAnd, TOr)):
            todo += [t.left, t.right]
        elif isinstance(t, (TLe, TEq)):
            found.update(p for p in (t.left, t.right)
                         if not isinstance(p, (CZero, COne)))
    return found
