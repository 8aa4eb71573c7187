"""Pinned verdicts of the whole pipeline: fuel, diagnostics and spans.

``verdicts.txt`` holds one line per verdict, with tab-separated fields:

- ``fuel CORPUS FILE DECL STEPS``: the reduction steps that checking each
  declaration of the bundled corpus (``src``) and of the benchmark's
  frozen copy (``bench``) takes;
- ``negative FILE FIRST``: the first diagnostic of each file of
  ``tests/negative``, checked against the bundled corpus;
- ``mutation K FILE EDIT FIRST``: the first diagnostic of the K-th of a
  seeded set of one-token edits of the benchmark's frozen corpus's files,
  each checked against the declarations of the files before it.  They are
  drawn from the frozen copy, so a proof added to the bundled corpus does
  not reshuffle them.

``FIRST`` is the diagnostic's kind, declaration (``-`` if none), span
(``START-END``, ``-`` if none) and message, or ``accepted``.  A change that
alters a verdict, a message or a fuel count shows as a diff of the file.
Regenerate it with ``PYTHONPATH=src python tests/test_verdicts.py``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from pathlib import Path

from sstt.checker import Checker
from sstt.corpus import CORPUS_DIR, LEDGER_NAME, check_files, read_ledger
from sstt.parser import KEYWORDS, PUNCT, lex
from sstt.scope import GlobalEnv

TESTS = Path(__file__).parent
PINNED = TESTS / "verdicts.txt"
NEGATIVE_DIR = TESTS / "negative"
BENCH_CORPUS = TESTS.parent / "bench" / "data" / "corpus"

MUTATION_SEED = 20261019
MUTATION_COUNT = 400
# what a replaced or inserted token may become
VOCABULARY = sorted(KEYWORDS) + PUNCT + ["0", "1", "2", "x", "t", "A", "Delta1", "hom"]


@contextmanager
def _counting_fuel(spent: list[tuple[str, int]]):
    """Record each declaration's name and the steps its check took."""
    original = Checker.check_decl

    def counting(self, decl):
        try:
            return original(self, decl)
        finally:
            spent.append((decl.name, self.steps))

    Checker.check_decl = counting
    try:
        yield
    finally:
        Checker.check_decl = original


def _copy(env: GlobalEnv) -> GlobalEnv:
    return GlobalEnv(dict(env.shapes), dict(env.decls))


def _first(env: GlobalEnv, path: Path, ledger: set[str]) -> str:
    reports, _ = check_files([path], env=_copy(env), ledger=ledger)
    diags = [d for r in reports for d in r.diagnostics]
    if not diags:
        return "accepted"
    d = diags[0]
    span = "-" if d.span is None else f"{d.span[0]}-{d.span[1]}"
    assert "\t" not in d.message and "\n" not in d.message, d.message
    return "\t".join((d.kind, d.decl or "-", span, d.message))


def _load(label: str, directory: Path, lines: list[str]) -> list[GlobalEnv]:
    """Check a corpus file by file, adding a fuel line per declaration;
    returns the environment before each file, and the final one last."""
    ledger = read_ledger(directory / LEDGER_NAME)
    env, before = GlobalEnv(), []
    for path in sorted(directory.glob("*.sstt")):
        before.append(_copy(env))
        spent: list[tuple[str, int]] = []
        with _counting_fuel(spent):
            reports, _ = check_files([path], env=env, ledger=ledger)
        assert all(r.ok for r in reports), reports[0].diagnostics
        lines += [f"fuel\t{label}\t{path.name}\t{name}\t{steps}" for name, steps in spent]
    return before + [env]


def _mutate(rng: random.Random, src: str) -> tuple[str, str]:
    """One seeded edit of one token of ``src``: the edited source and a
    description of the edit.  Inserted text is set off by blanks, so it
    never joins a neighbouring token."""
    toks = lex(src)[:-1]
    i = rng.randrange(len(toks))
    _, text, start, end = toks[i]
    match rng.choice(["delete", "duplicate", "swap", "replace"]):
        case "delete":
            return src[:start] + " " + src[end:], f"delete {i} {text}"
        case "duplicate":
            return src[:end] + " " + text + src[end:], f"duplicate {i} {text}"
        case "swap" if i + 1 < len(toks):
            _, after, start2, end2 = toks[i + 1]
            return (src[:start] + after + src[end:start2] + text + src[end2:],
                    f"swap {i} {text} {after}")
        case _:
            new = rng.choice(VOCABULARY)
            return src[:start] + " " + new + " " + src[end:], f"replace {i} {text} {new}"


def verdict_lines(workdir: Path) -> list[str]:
    """Every line of the snapshot, in order; mutated files are written to
    ``workdir``."""
    lines: list[str] = []
    corpus = _load("src", CORPUS_DIR, lines)[-1]
    before = _load("bench", BENCH_CORPUS, lines)
    ledger = read_ledger(CORPUS_DIR / LEDGER_NAME)
    for path in sorted(NEGATIVE_DIR.glob("*.sstt")):
        lines.append(f"negative\t{path.name}\t{_first(corpus, path, ledger)}")
    files = sorted(BENCH_CORPUS.glob("*.sstt"))
    ledger = read_ledger(BENCH_CORPUS / LEDGER_NAME)
    rng = random.Random(MUTATION_SEED)
    for k in range(MUTATION_COUNT):
        j = rng.randrange(len(files))
        src, edit = _mutate(rng, files[j].read_text(encoding="utf-8"))
        mutated = workdir / files[j].name
        mutated.write_text(src, encoding="utf-8")
        lines.append(f"mutation\t{k}\t{files[j].name}\t{edit}\t{_first(before[j], mutated, ledger)}")
    return lines


def test_verdicts_are_pinned(tmp_path):
    expected = PINNED.read_text(encoding="utf-8").splitlines()
    actual = verdict_lines(tmp_path)
    for got, want in zip(actual, expected):
        assert got == want
    assert len(actual) == len(expected)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        PINNED.write_text("\n".join(verdict_lines(Path(workdir))) + "\n", encoding="utf-8")
