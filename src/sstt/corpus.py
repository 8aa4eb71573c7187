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

from .checker import CheckError, Checker, DEFAULT_FUEL, Diagnostic
from .core import Decl, DeclTag
from .parser import ParseError, parse_file
from .scope import GlobalEnv, ScopeError, elaborate_toplevels

CORPUS_DIR = Path(__file__).parent / "corpus"
LEDGER_NAME = "axioms.ledger"


def read_ledger(path: Path) -> set[str]:
    names: set[str] = set()
    if not path.exists():
        return names
    for line in path.read_text(encoding="utf-8").splitlines():
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


def _too_deep(stage: str, decl: Optional[str] = None) -> Diagnostic:
    return Diagnostic(
        "too-deep",
        f"the input is nested too deeply to {stage}; "
        "split the expression into smaller definitions", decl)


def _internal(stage: str, err: Exception, decl: Optional[str] = None) -> Diagnostic:
    return Diagnostic(
        "internal", f"internal error while {stage}: {type(err).__name__}: {err}", decl)


def check_files(paths: list[Path], env: Optional[GlobalEnv] = None,
                fuel: int = DEFAULT_FUEL,
                ledger: Optional[set[str]] = None) -> tuple[list[FileReport], GlobalEnv]:
    """Parse and check the given files in order, adding each declaration
    to one environment once it checks.  Stops at the first diagnostic, since
    later declarations may depend on a failed one.  Input nested past
    Python's recursion limit is reported as ``too-deep``, and any other
    exception as ``internal``."""
    env = env if env is not None else GlobalEnv()
    reports: list[FileReport] = []
    checker = Checker(env, fuel=fuel)
    for path in paths:
        report = FileReport(str(path))
        reports.append(report)
        try:
            items = parse_file(path.read_text(encoding="utf-8"), str(path), env)
        except UnicodeDecodeError as e:
            report.diagnostics.append(Diagnostic(
                "parse", f"the file is not valid UTF-8: {e.reason} (byte {e.start})"))
        except ParseError as e:
            report.diagnostics.append(
                Diagnostic("parse", e.message + f" (line {e.line}, column {e.col})"))
        except ScopeError as e:
            report.diagnostics.append(Diagnostic("scope", e.message, span=e.span))
        except RecursionError:
            report.diagnostics.append(_too_deep("parse"))
        except Exception as e:
            report.diagnostics.append(_internal("parsing", e))
        else:
            _check_decls(checker, elaborate_toplevels(items, env), ledger, report, env)
        if report.diagnostics:
            break
    return reports, env


def _check_decls(checker: Checker, decls: list[Decl], ledger: Optional[set[str]],
                 report: FileReport, env: GlobalEnv) -> None:
    """Check parsed declarations in order, up to the first failure."""
    for d in decls:
        if (ledger is not None and d.tag == DeclTag.AXIOM
                and d.name not in ledger):
            report.diagnostics.append(Diagnostic(
                "unledgered-axiom",
                f"the postulate {d.name!r} is not in the axiom ledger",
                d.name, d.span))
            return
        try:
            checked = checker.check_decl(d)
        except CheckError as e:
            report.diagnostics.append(e.diagnostic)
            return
        except RecursionError:
            report.diagnostics.append(_too_deep("check", d.name))
            return
        except Exception as e:
            report.diagnostics.append(_internal(f"checking {d.name!r}", e, d.name))
            return
        env.decls[d.name] = checked
        report.decls.append(checked)


def load_corpus(directory: Optional[Path] = None,
                fuel: int = DEFAULT_FUEL) -> CorpusResult:
    directory = directory or CORPUS_DIR
    ledger = read_ledger(directory / LEDGER_NAME)
    paths = sorted(p for p in directory.glob("*.sstt") if p.is_file())
    start = time.monotonic()
    reports, env = check_files(paths, fuel=fuel, ledger=ledger)
    elapsed = time.monotonic() - start
    return CorpusResult(reports, env, ledger, elapsed)
