"""The docs stay in step with the code: the concordance table with the
corpus, the lexical section of the syntax reference with the lexer, and
the README's list of diagnostic kinds with the checker's."""

import csv
import re
from pathlib import Path

from sstt.checker import DIAGNOSTIC_KINDS
from sstt.parser import KEYWORDS, PUNCT

DOCS = Path(__file__).parent.parent / "docs"
README = Path(__file__).parent.parent / "README.md"


def read_concordance():
    with open(DOCS / "concordance.tsv", newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert rows and set(rows[0]) == {"concept", "decl", "file"}
    return rows


def test_concordance_names_are_unique():
    rows = read_concordance()
    decls = [r["decl"] for r in rows]
    assert len(decls) == len(set(decls))


def test_every_entry_exists(corpus):
    known = set(corpus.env.decls) | set(corpus.env.shapes)
    for row in read_concordance():
        assert row["decl"] in known, row["decl"]


def test_every_corpus_decl_is_documented(corpus):
    documented = {r["decl"] for r in read_concordance()}
    for report in corpus.files:
        for decl in report.decls:
            assert decl.name in documented, decl.name


def test_files_column_is_accurate(corpus):
    by_file = {}
    for report in corpus.files:
        name = Path(report.path).name
        for decl in report.decls:
            by_file[decl.name] = name
    for row in read_concordance():
        if row["decl"] in by_file:
            assert by_file[row["decl"]] == row["file"], row["decl"]
        else:  # shapes live in the prelude
            assert row["file"] == "00-prelude.sstt"


def test_lexical_section_lists_the_keywords_and_punctuation():
    text = (DOCS / "syntax.md").read_text(encoding="utf-8")
    section = text.split("## Lexical structure\n", 1)[1].split("\n## ", 1)[0]
    keywords, punct = (block.split() for block in re.findall(r"```\n(.*?)```", section, re.S))
    assert sorted(keywords) == sorted(KEYWORDS)
    assert sorted(punct) == sorted(PUNCT)


def test_readme_lists_the_diagnostic_kinds():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"reported as a structured diagnostic \((.*?)\)", text, re.S).group(1)
    assert re.findall(r"`([a-z-]+)`", listed) == list(DIAGNOSTIC_KINDS)
