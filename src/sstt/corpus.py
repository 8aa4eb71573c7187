"""Loading and checking the bundled formal library.

The library is a directory of ``.sstt`` files processed in sorted order, so
later files may use anything declared earlier.  Every postulate must be
named in the ``axioms.ledger`` file that ships with the library; a
postulate outside the ledger is reported instead of silently extending the
axiom base.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from .checker import CheckError, Checker, Diagnostic
from .core import Decl, DeclTag
from .parser import ParseError, parse_file
from .scope import GlobalEnv, ScopeError, elaborate_toplevels
from .tope import DEFAULT_FUEL

CORPUS_DIR = Path(__file__).parent / "corpus"
LEDGER_NAME = "axioms.ledger"
# a UTF-8 byte-order mark is not part of the text; it is dropped after
# decoding, so a decode error still gives its offset in the file
BOM = "\ufeff"


def read_ledger(path: Path) -> set[str]:
    names: set[str] = set()
    if not path.exists():
        return names
    for line in path.read_text(encoding="utf-8").removeprefix(BOM).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(line)
    return names


class FileReport:
    def __init__(self, path: str):
        self.path = path
        self.decls: list[Decl] = []
        self.diagnostics: list[Diagnostic] = []

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "decls": [d.name for d in self.decls],
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


class CorpusResult:
    def __init__(self, files: list[FileReport], env: GlobalEnv, ledger: set[str],
                 elapsed: float):
        self.files = files
        self.env = env
        self.ledger = ledger
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.files)

    @property
    def decls(self) -> list[Decl]:
        return [d for f in self.files for d in f.decls]

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for f in self.files for d in f.diagnostics]

    def by_tag(self, tag: DeclTag) -> list[Decl]:
        return [d for d in self.decls if d.tag == tag]

    def to_json(self) -> dict:
        counts = {tag.value: len(self.by_tag(tag)) for tag in DeclTag}
        return {
            "ok": self.ok,
            "files": [f.to_json() for f in self.files],
            "counts": counts,
            "axioms": sorted(d.name for d in self.by_tag(DeclTag.AXIOM)),
            "theorems_proved": sorted(
                d.name for d in self.by_tag(DeclTag.THEOREM_PROVED)),
            "theorems_stated": sorted(
                d.name for d in self.by_tag(DeclTag.THEOREM_STATED)),
            "ledger": sorted(self.ledger),
        }


def check_files(paths: list[Path], env: Optional[GlobalEnv] = None,
                fuel: int = DEFAULT_FUEL,
                ledger: Optional[set[str]] = None) -> tuple[list[FileReport], GlobalEnv]:
    """Parse and check each of the given files in order, adding each
    declaration to one environment once it checks.  A file stops at its
    first diagnostic; the next is checked against what has checked so far,
    so a declaration that failed, and the rest of its file, are unbound
    there.  A file that cannot be read or decoded is reported as ``parse``,
    input nested past Python's recursion limit as ``too-deep``, and any
    other exception as ``internal``."""
    env = env if env is not None else GlobalEnv()
    reports: list[FileReport] = []
    checker = Checker(env, fuel=fuel)
    for path in paths:
        report = FileReport(str(path))
        reports.append(report)
        name: Optional[str] = None  # the declaration being checked, once parsed
        try:
            items = parse_file(path.read_text(encoding="utf-8").removeprefix(BOM), str(path), env)
            for decl in elaborate_toplevels(items, env):
                name = decl.name
                if ledger is not None and decl.tag == DeclTag.AXIOM and name not in ledger:
                    raise CheckError(Diagnostic(
                        "unledgered-axiom", f"the postulate {name!r} is not in the axiom ledger",
                        name, decl.span))
                checked = checker.check_decl(decl)
                env.decls[name] = checked
                report.decls.append(checked)
        except UnicodeDecodeError as e:
            report.diagnostics.append(Diagnostic(
                "parse", f"the file is not valid UTF-8: {e.reason} (byte {e.start})"))
        except OSError as e:
            report.diagnostics.append(
                Diagnostic("parse", f"the file cannot be read: {e.strerror or e}"))
        except ParseError as e:
            report.diagnostics.append(
                Diagnostic("parse", e.message + f" (line {e.line}, column {e.col})"))
        except ScopeError as e:
            report.diagnostics.append(Diagnostic("scope", e.message, span=e.span))
        except CheckError as e:
            report.diagnostics.append(e.diagnostic)
        except RecursionError:
            report.diagnostics.append(Diagnostic(
                "too-deep",
                f"the input is nested too deeply to {'parse' if name is None else 'check'}; "
                "split the expression into smaller definitions", name))
        except Exception as e:
            stage = "parsing" if name is None else f"checking {name!r}"
            report.diagnostics.append(Diagnostic(
                "internal", f"internal error while {stage}: {type(e).__name__}: {e}", name))
    return reports, env


def load_corpus(directory: Optional[Path] = None,
                fuel: int = DEFAULT_FUEL) -> CorpusResult:
    directory = directory or CORPUS_DIR
    ledger = read_ledger(directory / LEDGER_NAME)
    paths = sorted(p for p in directory.glob("*.sstt") if p.is_file())
    start = time.monotonic()
    reports, env = check_files(paths, fuel=fuel, ledger=ledger)
    elapsed = time.monotonic() - start
    return CorpusResult(reports, env, ledger, elapsed)
