"""Command line interface.

Subcommands:

``sstt check FILE...``
    Type-check source files.  Files in the same directory whose names sort
    earlier are loaded first as dependencies, so a library split across
    numbered files works without an explicit import list.  Every file is
    checked: one that fails is listed, and its failed declaration and the
    rest of it are unbound in the files after it.  The verdict and exit
    status cover only the named files.

``sstt corpus [DIR]``
    Check the bundled formal library (or another directory laid out the
    same way) and print a summary.

``sstt tope "x : 2, y : 2 | x <= y |- ..."``
    Decide a tope sequent and show a counter-model if it fails.

``--machine`` switches any subcommand to deterministic JSON on stdout; an
input error is then ``{"error": MESSAGE}`` there instead of text on stderr.
Exit status: 0 success, 1 checking failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corpus import FileReport, check_files, load_corpus
from .parser import ParseError, parse_sequent_source
from .tope import DEFAULT_FUEL, TopeError, entails


def _machine_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Style:
    def __init__(self, enabled: bool):
        self.enabled = enabled

    def _wrap(self, code: str, s: str) -> str:
        return f"\033[{code}m{s}\033[0m" if self.enabled else s

    def good(self, s: str) -> str:
        return self._wrap("32", s)

    def bad(self, s: str) -> str:
        return self._wrap("31", s)

    def dim(self, s: str) -> str:
        return self._wrap("2", s)


def _input_error(args, message: str) -> int:
    """Report an input error, as JSON on stdout under ``--machine``."""
    if args.machine:
        print(_machine_dump({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _style(args) -> Style:
    enabled = (not args.no_color and not os.environ.get("NO_COLOR")
               and sys.stdout.isatty() and not args.machine)
    return Style(enabled)


def _with_siblings(paths: list[Path]) -> tuple[list[Path], set[Path]]:
    """The given files plus earlier-sorting .sstt siblings, in check order."""
    wanted = {p.resolve() for p in paths}
    out: set[Path] = set()
    for p in paths:
        out.add(p.resolve())
        for sib in p.resolve().parent.glob("*.sstt"):
            if sib.name < p.name and sib.is_file():
                out.add(sib.resolve())
    ordered = sorted(out, key=lambda p: (str(p.parent), p.name))
    return ordered, wanted


def _print_reports(style: Style, reports: list[FileReport], label) -> None:
    """A line per file, named by ``label(path)``, and one per diagnostic."""
    for r in reports:
        mark = style.good("ok") if r.ok else style.bad("FAIL")
        print(f"{mark} {label(r.path)} ({len(r.decls)} declarations)")
        for d in r.diagnostics:
            where = f" [{d.decl}]" if d.decl else ""
            print(f"  {style.bad(d.kind)}{where}: {d.message}")


def cmd_check(args) -> int:
    style = _style(args)
    paths = [Path(p) for p in args.files]
    for p in paths:
        if not p.exists():
            return _input_error(args, f"no such file: {p}")
        if not p.is_file():
            return _input_error(args, f"not a file: {p}")
    ordered, wanted = _with_siblings(paths)
    reports, _ = check_files(ordered, fuel=args.fuel)
    # a failing sibling is listed, but only the requested files decide
    ok = all(r.ok for r in reports if Path(r.path) in wanted)
    if args.machine:
        payload = {
            "ok": ok,
            "files": [{**r.to_json(), "requested": Path(r.path) in wanted} for r in reports],
        }
        print(_machine_dump(payload))
        return 0 if ok else 1
    _print_reports(style, reports, str)
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    style = _style(args)
    directory = Path(args.dir) if args.dir else None
    if directory is not None and not directory.is_dir():
        return _input_error(args, f"no such directory: {directory}")
    try:
        result = load_corpus(directory, fuel=args.fuel)
    except UnicodeDecodeError as e:
        return _input_error(
            args, f"the axiom ledger is not valid UTF-8: {e.reason} (byte {e.start})")
    except OSError as e:
        return _input_error(args, f"the axiom ledger cannot be read: {e.strerror or e}")
    if args.machine:
        print(_machine_dump(result.to_json()))
        return 0 if result.ok else 1
    _print_reports(style, result.files, lambda path: Path(path).name)
    summary = result.to_json()["counts"]
    print(style.dim(
        f"total: {sum(summary.values())} declarations, "
        f"{summary['definition']} definitions, {summary['axiom']} axioms, "
        f"{summary['theorem-proved']} proved, {summary['theorem-stated']} stated "
        f"({result.elapsed:.2f}s)"
    ))
    return 0 if result.ok else 1


def cmd_tope(args) -> int:
    style = _style(args)
    try:
        seq = parse_sequent_source(args.sequent)
        result = entails(seq, args.fuel)
    except (ParseError, TopeError) as e:
        return _input_error(args, str(e))
    except RecursionError:
        return _input_error(args, "the sequent is nested too deeply")
    if args.machine:
        payload = {"holds": bool(result)}
        if result.counter_model is not None:
            payload["counter_model"] = str(result.counter_model)
        print(_machine_dump(payload))
        return 0 if result else 1
    if result:
        print(style.good("holds"))
        return 0
    print(style.bad("does not hold"))
    print(f"counter-model: {result.counter_model}")
    return 1


def positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sstt",
        description="Proof checker for a three-layer simplicial type theory.",
    )
    ap.add_argument("--machine", action="store_true",
                    help="emit deterministic JSON on stdout")
    ap.add_argument("--no-color", action="store_true",
                    help="disable ANSI colors (NO_COLOR is also honored)")
    ap.add_argument("--fuel", type=positive_int, default=DEFAULT_FUEL,
                    help="steps per declaration or sequent, for reduction and tope solving each")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check source files")
    p_check.add_argument("files", nargs="+")
    p_check.set_defaults(fn=cmd_check)

    p_corpus = sub.add_parser("corpus", help="check the bundled library")
    p_corpus.add_argument("dir", nargs="?", default=None)
    p_corpus.set_defaults(fn=cmd_corpus)

    p_tope = sub.add_parser("tope", help="decide a tope sequent")
    p_tope.add_argument("sequent")
    p_tope.set_defaults(fn=cmd_tope)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
