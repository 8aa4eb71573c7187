import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NEGATIVE_DIR
from sstt.cli import main
from sstt.corpus import CORPUS_DIR
from sstt.parser import lex, parse_sequent_source
from test_tope import true_at


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "sstt.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc


def test_corpus_human(capsys):
    code = main(["--no-color", "corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out and "declarations" in out
    assert "\033[" not in out


def test_corpus_machine(capsys):
    code = main(["--machine", "corpus"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert set(payload["axioms"]) == {
        line.strip()
        for line in (CORPUS_DIR / "axioms.ledger").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    }


def test_corpus_machine_deterministic():
    a = run_cli("--machine", "corpus")
    b = run_cli("--machine", "corpus")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.strip()


def test_check_loads_earlier_siblings(capsys):
    # a later corpus file depends on earlier ones, which load implicitly
    target = CORPUS_DIR / "08-uniqueness.sstt"
    code = main(["--machine", "check", str(target)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    requested = [f for f in payload["files"] if f["requested"]]
    assert [f["path"] for f in requested] == [str(target)]
    assert len(payload["files"]) > 1


def test_check_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.sstt"
    bad.write_text("def bad (A : U) (x : A) : A := fst x\n")
    code = main(["--machine", "check", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    kinds = [d["kind"] for f in payload["files"] for d in f["diagnostics"]]
    assert "type-mismatch" in kinds


def test_check_prints_extension_application_in_mismatch(capsys, tmp_path):
    bad = tmp_path / "extapp.sstt"
    bad.write_text("shape Delta1 := {t : 2 | TOP}\n"
                   "def bad (X : Delta1 -> U) (x : X 0) : X 1 := x\n")
    code = main(["--machine", "check", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    diags = [d for f in payload["files"] for d in f["diagnostics"]]
    assert [d["kind"] for d in diags] == ["type-mismatch"]
    assert diags[0]["message"] == "expected a term of type X 1, found one of type X 0"


def test_check_missing_file(capsys):
    assert main(["check", "no-such-file.sstt"]) == 2


def test_check_directory_is_an_input_error(capsys, tmp_path):
    assert main(["--machine", "check", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": f"not a file: {tmp_path}"}
    assert captured.err == ""
    assert main(["check", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a file: {tmp_path}\n"


@pytest.mark.parametrize("case", ["no-such-file", "no-such-directory", "undecodable-ledger",
                                  "unreadable-ledger"])
def test_input_errors_are_json_under_machine(capsys, tmp_path, case):
    # as for `sstt tope`: the error on stdout with --machine, on stderr
    # without it, exit status 2 either way
    missing = tmp_path / "missing"
    unreadable = tmp_path / "unreadable"
    argv, message = {
        "no-such-file": (["check", str(missing)], f"no such file: {missing}"),
        "no-such-directory": (["corpus", str(missing)], f"no such directory: {missing}"),
        "undecodable-ledger": (["corpus", str(tmp_path)],
                               "the axiom ledger is not valid UTF-8: invalid start byte (byte 3)"),
        "unreadable-ledger": (["corpus", str(unreadable)],
                              "the axiom ledger cannot be read: Is a directory"),
    }[case]
    (tmp_path / "axioms.ledger").write_bytes(b"ok\n\xff\n")
    (unreadable / "axioms.ledger").mkdir(parents=True)
    assert main(["--machine", *argv]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == ""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_check_undecodable_file_is_a_parse_diagnostic(capsys, tmp_path):
    bad = tmp_path / "utf16.sstt"
    bad.write_bytes("def f : U := U\n".encode("utf-16"))
    assert main(["--machine", "check", str(bad)]) == 1
    diags = [d for f in json.loads(capsys.readouterr().out)["files"] for d in f["diagnostics"]]
    assert diags == [{"kind": "parse",
                      "message": "the file is not valid UTF-8: invalid start byte (byte 0)"}]


def test_corpus_undecodable_ledger_is_an_input_error(capsys, tmp_path):
    (tmp_path / "axioms.ledger").write_bytes(b"ok\n\xff\n")
    assert main(["corpus", str(tmp_path)]) == 2
    assert "not valid UTF-8: invalid start byte (byte 3)" in capsys.readouterr().err


def test_a_directory_named_like_a_source_file_is_not_read(capsys, tmp_path):
    # only regular files are sources, for `corpus` and for the siblings
    # that `check` loads first
    (tmp_path / "01-x.sstt").mkdir()
    target = tmp_path / "02-f.sstt"
    target.write_text("def f (A : U) (a : A) : A := a\n")
    assert main(["--machine", "corpus", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [f["path"] for f in payload["files"]] == [str(target)]
    assert main(["--machine", "check", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(f["path"], f["decls"]) for f in payload["files"]] == [(str(target), ["f"])]


@pytest.mark.parametrize("fuel", ["0", "-5"])
def test_fuel_must_be_positive(capsys, fuel):
    assert main(["--fuel", fuel, "corpus"]) == 2
    assert f"argument --fuel: must be a positive integer, not {fuel}" in capsys.readouterr().err


def test_tope_holds(capsys):
    code = main(["--machine", "tope", "t : 2 | TOP |- t <= 1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["holds"] is True


def test_tope_counter_model(capsys):
    code = main(["--machine", "tope", "t : 2, s : 2 | TOP |- t <= s"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["holds"] is False and payload["counter_model"]


def test_tope_parse_error(capsys):
    assert main(["--machine", "tope", "t : 2 | |-"]) == 2


@pytest.mark.parametrize("sequent,error", [
    ("x : 2 | TOP |- y <= x", "unbound cube variable 'y'"),
    ("x : 2 | TOP |- fst x <= x", "fst applied to point of non-product cube 2"),
])
def test_tope_ill_typed_point_is_an_input_error(capsys, sequent, error):
    assert main(["--machine", "tope", sequent]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": error}


def test_tope_context_names_are_cube_variables(capsys):
    # a context name is bound, so on its own it starts a relation
    assert main(["--machine", "tope", "t : 2 | t |- TOP"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "<sequent>:1:11: expected '===', found '|-'"}


@pytest.mark.parametrize("ctx,col", [("x : 2 * 2, x : 2", 12), ("x : 2, x : 2 * 2", 8)])
def test_tope_repeated_context_variable_is_an_input_error(capsys, ctx, col):
    # the later entry must not silently take the name over
    assert main(["--machine", "tope", f"{ctx} | x <= 1 |- TOP"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"<sequent>:1:{col}: repeated variable 'x' in the context"}


def long_chain(n, connective):
    """Cube variables x0 ... xn and the run x1 <= x0 CONN ... CONN xn <= x(n-1)."""
    ctx = ", ".join(f"x{i} : 2" for i in range(n + 1))
    return ctx, f" {connective} ".join(f"x{i + 1} <= x{i}" for i in range(n))


def test_tope_long_conjunction_holds(capsys):
    # a run of one connective is walked as a list, so 1,000 conjuncts do not
    # exhaust the recursion limit
    ctx, hyp = long_chain(1000, "/\\")
    assert main(["--machine", "tope", f"{ctx} | {hyp} |- x1000 <= x0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"holds": True}


def test_check_long_conjunction_parameter(capsys, tmp_path):
    # the same run as a tope parameter is checked, not reported too deep
    _, tope = long_chain(1000, "/\\")
    names = " ".join(f"x{i}" for i in range(1001))
    src = tmp_path / "flat.sstt"
    src.write_text(f"def f ({names} : 2) {{{tope}}} (A : U) (a : A) : A := a\n")
    assert main(["--machine", "check", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_tope_long_disjunction_is_decided(capsys):
    ctx, goal = long_chain(1000, "\\/")
    code = main(["--machine", "tope", f"{ctx} | TOP |- {goal}"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and payload["holds"] == (code == 0)


def test_tope_deep_nesting_is_an_input_error(capsys):
    # 2,000 levels of alternating connectives: the reader takes them in its
    # loop, but normalizing the tope recurses once a level
    depth = 2000
    tope = "t <= 1"
    for i in range(depth):
        connective = "/\\" if i % 2 else "\\/"
        tope = f"t <= 1 {connective} ({tope})"
    assert main(["--machine", "tope", f"t : 2 | {tope} |- TOP"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "the sequent is nested too deeply"}


def test_tope_deep_parentheses_hold(capsys):
    # parentheses alone do not nest the tope, and the reader does not recurse
    deep = f"{'(' * 2000}t <= 1{')' * 2000}"
    for sequent in (f"t : 2 | {deep} |- TOP", f"t : 2 | TOP |- {deep}"):
        assert main(["--machine", "tope", sequent]) == 0
        assert json.loads(capsys.readouterr().out) == {"holds": True}


def test_parse_error_after_trailing_comment_points_at_end_of_input(capsys, tmp_path):
    # the end of input is at the column after the comment, not where it began
    src = tmp_path / "comment.sstt"
    src.write_text("def f (A : U) : U :=  -- trailing comment")
    assert main(["--machine", "check", str(src)]) == 1
    diags = [d for f in json.loads(capsys.readouterr().out)["files"] for d in f["diagnostics"]]
    assert diags == [{"kind": "parse",
                      "message": "expected an expression (line 1, column 42)"}]


def test_check_reports_requested_file_never_reached(capsys):
    # checking stops at the failing sibling 01, which 07 does not need
    target = NEGATIVE_DIR / "07-tope-unsolved.sstt"
    failed = str((NEGATIVE_DIR / "01-unbound-var.sstt").resolve())
    code = main(["--machine", "check", str(target)])
    files = json.loads(capsys.readouterr().out)["files"]
    assert code == 1
    assert [f["path"] for f in files] == [failed, str(target.resolve())]
    assert files[-1] == {"path": str(target.resolve()), "requested": True, "decls": [],
                         "diagnostics": [], "not_checked": failed}
    assert main(["--no-color", "check", str(target)]) == 1
    out = capsys.readouterr().out
    assert f"not checked {target.resolve()}: {failed} failed first" in out


def test_no_color_env(monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    main(["corpus"])
    assert "\033[" not in capsys.readouterr().out


def test_entry_point_runs():
    proc = run_cli("tope", "t : 2 | t === 0 |- t <= 1")
    assert proc.returncode == 0


def test_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sstt.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tope_eight_variable_chain():
    names = "abcdefgh"
    ctx = ", ".join(f"{n} : 2" for n in names)
    hyp = " /\\ ".join(f"{a} <= {b}" for a, b in zip(names, names[1:]))
    proc = run_cli("--machine", "tope", f"{ctx} | {hyp} |- a <= h", timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"holds": True}


def chained_links(k):
    """Cube variables, hypothesis and goal of a valid sequent whose
    refutation branches 2**k times: not (goal) asks for x0 < x1 < ... < xk,
    link i through ai or bi, and only the whole chain meets xk <= x0."""
    names = [f"x{i}" for i in range(k + 1)] + [f"{c}{i}" for i in range(k) for c in "ab"]
    goal = " \\/ ".join(
        f"((a{i} <= x{i} \\/ x{j} <= a{i}) /\\ (b{i} <= x{i} \\/ x{j} <= b{i}))"
        for i, j in zip(range(k), range(1, k + 1)))
    return names, f"x{k} <= x0", goal


def test_tope_search_budget(capsys):
    names, hyp, goal = chained_links(4)
    ctx = ", ".join(f"{n} : 2" for n in names)
    assert main(["--machine", "tope", f"{ctx} | {hyp} |- {goal}"]) == 0
    capsys.readouterr()
    names, hyp, goal = chained_links(12)
    ctx = ", ".join(f"{n} : 2" for n in names)
    assert main(["--machine", "tope", f"{ctx} | {hyp} |- {goal}"]) == 2
    assert "too large" in json.loads(capsys.readouterr().out)["error"]


def unordered_pairs(k):
    """Cube variables and a hypothesis whose DNF has 2**k disjuncts:
    each of k pairs of variables is ordered one way or the other."""
    names = [f"{c}{i}" for i in range(k) for c in "ab"]
    hyp = " /\\ ".join(f"(a{i} <= b{i} \\/ b{i} <= a{i})" for i in range(k))
    return names, hyp


@pytest.mark.parametrize("goal", ["TOP", "a0 <= a1"])
def test_tope_wide_product_is_decided(capsys, goal):
    # the hypothesis is a conjunction of totality instances, so it is
    # equivalent to TOP, however many disjuncts its DNF has
    names, hyp = unordered_pairs(13)
    ctx = ", ".join(f"{n} : 2" for n in names)
    source = f"{ctx} | {hyp} |- {goal}"
    code = main(["--machine", "tope", source])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["holds"]) == ((0, True) if goal == "TOP" else (1, False))
    if goal != "TOP":
        seq = parse_sequent_source(source)
        rank = {name: i for i, block in enumerate(payload["counter_model"].split(" < "))
                for name in block.split(" = ")}
        assert true_at(seq.hyp, rank) and not true_at(seq.goal, rank)


def chained_choices(k):
    """Cube variables, hypothesis and goal of a valid sequent whose
    hypothesis has 2**k consistent DNF disjuncts: link i orders x_i below
    or at x_{i+1}, and the goal x0 <= xk follows only from all k links."""
    names = [f"x{i}" for i in range(k + 1)]
    hyp = " /\\ ".join(f"(x{i} <= x{i + 1} \\/ x{i} === x{i + 1})" for i in range(k))
    return names, hyp, f"x0 <= x{k}"


def test_tope_disjunct_bound(capsys):
    names, hyp, goal = chained_choices(12)
    ctx = ", ".join(f"{n} : 2" for n in names)
    assert main(["--machine", "tope", f"{ctx} | {hyp} |- {goal}"]) == 0
    assert json.loads(capsys.readouterr().out) == {"holds": True}
    names, hyp, goal = chained_choices(13)
    ctx = ", ".join(f"{n} : 2" for n in names)
    assert main(["--machine", "tope", f"{ctx} | {hyp} |- {goal}"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "tope too large: more than 4096 disjuncts"}
    # a disjunct counts when it is reached, also if it then turns out
    # contradictory, so a hypothesis refuted only by its last conjunct is
    # refused rather than walked through all its prefixes
    names, hyp = unordered_pairs(13)
    ctx = ", ".join(f"{n} : 2" for n in names)
    assert main(["--machine", "tope", f"{ctx} | {hyp} /\\ 0 === 1 |- BOT"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "tope too large: more than 4096 disjuncts"}


def test_check_reports_disjunct_bound_as_tope_too_large(capsys, tmp_path):
    names, hyp, goal = chained_choices(13)
    src = tmp_path / "long.sstt"
    src.write_text(f"def long ({' '.join(names)} : 2) {{{hyp}}} (A : U) (a : A) : A :=\n"
                   f"  [ {goal} |-> a ]\n")
    code = main(["--machine", "check", str(src)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    diags = [(d["kind"], d["message"]) for f in payload["files"] for d in f["diagnostics"]]
    assert diags == [("tope-too-large", "tope too large: more than 4096 disjuncts")]


def test_check_decides_a_wide_tope_parameter(capsys, tmp_path):
    names, hyp = unordered_pairs(13)
    src = tmp_path / "wide.sstt"
    src.write_text(f"def wide ({' '.join(names)} : 2) {{{hyp}}} (A : U) (a : A) : A :=\n"
                   "  [ TOP |-> a ]\n")
    assert main(["--machine", "check", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("ty,body", [
    ("<Pi (t : 2) -> A [ t === 0 |-> a ]>", "\\t. b"),
    ("A", "[ TOP |-> a | TOP |-> b ]"),
    ("Id A a b", "refl"),
], ids=["boundary", "case", "refl"])
def test_check_under_a_contradictory_tope_parameter(capsys, tmp_path, ty, body):
    # any two terms are equal under a contradiction, whether they meet at a
    # boundary, on the overlap of a case split or as the endpoints of refl;
    # the wide product after 0 === 1 has a DNF past the disjunct bound
    names, hyp = unordered_pairs(13)
    src = tmp_path / "absurd.sstt"
    src.write_text(f"def f ({' '.join(names)} : 2) {{0 === 1}} {{{hyp}}} (A : U) (a b : A) "
                   f": {ty} :=\n  {body}\n")
    assert main(["--machine", "check", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _wide_decl(k, ty):
    names, hyp = unordered_pairs(k)
    return f"def wide ({' '.join(names)} : 2) {{{hyp}}} (A : U) (a : A) : {ty} := refl"


@pytest.mark.parametrize("decl", [
    # no branch of g's boundary holds in the whole context, so the
    # application to a goes into each branch and is compared there
    "def c (t : 2) {t === 0 \\/ t === 1} (A : U) (a : A) "
    "(g : <Pi (s : 2) -> (A -> A) [ s === 0 |-> \\x. x | s === 1 |-> \\x. x ]>) "
    ": Id A (g t a) a := refl",
    # at a type that is a stuck case split, eta applies branch by branch
    "def e (t : 2) {t === 0 \\/ t === 1} (A : U) (f : A -> A) "
    ": Id ([ t === 0 |-> A -> A | t === 1 |-> A -> A ] : U) f ((\\x. f x) : A -> A) := refl",
    # a context with 2**13 disjuncts is not expanded to compare two terms
    _wide_decl(13, "Id A (idf A a) a"),
], ids=["commute", "eta", "wide"])
def test_check_compares_under_a_disjunctive_context(capsys, tmp_path, decl):
    src = tmp_path / "disjunctive.sstt"
    src.write_text(f"def idf (A : U) (a : A) : A := a\n\n{decl}\n")
    assert main(["--machine", "check", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_check_nested_case_splits_in_a_wide_context_end_in_bounded_time(capsys, tmp_path):
    # each of 13 nested case splits splits the comparison in two, so it has
    # 2**13 leaves; the fuel bound ends it
    k = 13
    term = "a"
    for i in range(k):
        term = f"sel a{i} b{i} A ({term})"
    src = tmp_path / "nested.sstt"
    src.write_text("def sel (t s : 2) (A : U) (x : A) : A := [ t <= s |-> x | s <= t |-> x ]\n\n"
                   + _wide_decl(k, f"Id A ({term}) a") + "\n")
    start = time.monotonic()
    assert main(["--machine", "--fuel", "1000", "check", str(src)]) == 1
    assert time.monotonic() - start < 10
    diags = [d for f in json.loads(capsys.readouterr().out)["files"] for d in f["diagnostics"]]
    assert [(d["kind"], d["decl"]) for d in diags] == [("fuel", "wide")]


def test_check_reports_tope_too_large(capsys, tmp_path):
    names, hyp, goal = chained_links(12)
    src = tmp_path / "big.sstt"
    src.write_text(f"def big ({' '.join(names)} : 2) {{{hyp}}} (A : U) (a : A) : A :=\n"
                   f"  [ {goal} |-> a ]\n")
    code = main(["--machine", "check", str(src)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    kinds = [d["kind"] for f in payload["files"] for d in f["diagnostics"]]
    assert kinds == ["tope-too-large"]


def test_check_reports_deep_nesting_as_too_deep(tmp_path):
    depth = 2000
    src = tmp_path / "deep.sstt"
    src.write_text("def idu (x : Unit) : Unit := x\n\n"
                   f"def deep : Unit := {'idu (' * depth}star{')' * depth}\n")
    proc = run_cli("--machine", "check", str(src), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    kinds = [d["kind"] for f in payload["files"] for d in f["diagnostics"]]
    assert kinds == ["too-deep"]


def test_check_nesting_just_below_the_depth_limit(tmp_path):
    # a parenthesised argument costs the parser three frames and the
    # checker about four, so 240 levels check (246 at most)
    depth = 240
    src = tmp_path / "deep.sstt"
    src.write_text("def idu (x : Unit) : Unit := x\n\n"
                   f"def deep : Unit := {'idu (' * depth}star{')' * depth}\n")
    proc = run_cli("--machine", "check", str(src), timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["ok"] is True


def test_check_nested_annotations_parse_in_linear_time(tmp_path):
    # each (x : D) is decided by lookahead, so the domain is parsed once and
    # not again as an annotation; 40 levels would take days to backtrack
    expr = "A"
    for i in reversed(range(40)):
        expr = f"(x{i} : {expr})"
    src = tmp_path / "nested.sstt"
    src.write_text(f"def f (A : U) : U := {expr}\n")
    proc = run_cli("--machine", "check", str(src), timeout=10)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    diags = [d for f in payload["files"] for d in f["diagnostics"]]
    assert diags == [{"kind": "scope", "message": "unbound name 'x0'",
                      "start": 22, "end": 24}]


@pytest.fixture(scope="module")
def corpus_copy(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    for path in CORPUS_DIR.glob("*.sstt"):
        shutil.copy(path, directory)
    return directory


@st.composite
def token_mutation(draw):
    """A corpus file name and its text with one token deleted, doubled,
    swapped with the next one or replaced by another token of the file."""
    path = draw(st.sampled_from(sorted(CORPUS_DIR.glob("*.sstt"))))
    src = path.read_text(encoding="utf-8")
    spans = [(start, end) for kind, _, start, end in lex(src) if kind != "eof"]
    i = draw(st.integers(0, len(spans) - 1))
    (start, end), text = spans[i], src[spans[i][0]:spans[i][1]]
    op = draw(st.sampled_from(["delete", "double", "swap", "replace"]))
    if op == "swap" and i + 1 < len(spans):
        nstart, nend = spans[i + 1]
        return path.name, (src[:start] + src[nstart:nend] + src[end:nstart] + text
                           + src[nend:])
    if op == "replace":
        other = spans[draw(st.integers(0, len(spans) - 1))]
        text = src[other[0]:other[1]]
    new = "" if op == "delete" else f"{text} {text}" if op == "double" else text
    return path.name, src[:start] + new + src[end:]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(token_mutation())
def test_mutated_corpus_file_ends_in_a_diagnostic(corpus_copy, mutation):
    # every input ends in success or a structured diagnostic: the checker
    # infers a term's type before it reduces the expected one, so an
    # ill-typed term must not reach a reduction that assumes a well-typed one
    name, text = mutation
    path = corpus_copy / name
    out, err = io.StringIO(), io.StringIO()
    try:
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--machine", "check", str(path)])
    finally:
        shutil.copy(CORPUS_DIR / name, path)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())
    kinds = [d["kind"] for f in payload["files"] for d in f["diagnostics"]]
    assert "internal" not in kinds, payload
    assert payload["ok"] == (code == 0) == (kinds == [])
