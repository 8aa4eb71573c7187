import pytest

from conftest import NEGATIVE_DIR
from sstt.corpus import check_files
from sstt.scope import GlobalEnv

CASES = sorted(NEGATIVE_DIR.glob("*.sstt"))


def _check(corpus, ledger, path):
    """Check ``path`` against the corpus, in an environment of its own: the
    declarations of a file that check before one fails are added to it (as
    in 25-const-is-not-identity), and the corpus fixture is shared."""
    env = GlobalEnv(dict(corpus.env.shapes), dict(corpus.env.decls))
    reports, _ = check_files([path], env=env, ledger=ledger)
    return [d for r in reports for d in r.diagnostics], env


def check_negative(corpus, ledger, path):
    return [d.kind for d in _check(corpus, ledger, path)[0]]


def test_suite_is_large_enough():
    assert len(CASES) >= 20
    for case in CASES:
        assert case.with_suffix(".expect").exists(), case


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_rejected_with_expected_kind(corpus, ledger, path):
    expected = path.with_suffix(".expect").read_text().strip()
    kinds = check_negative(corpus, ledger, path)
    assert kinds, f"{path.name} was accepted"
    assert kinds[0] == expected, f"{path.name}: got {kinds}, expected {expected}"


def _first(corpus, ledger, path):
    diags, env = _check(corpus, ledger, path)
    return diags[0], env


def test_tuple_pattern_name_keeps_its_token_in_messages(corpus, ledger, tmp_path):
    # the name of a tuple-pattern lambda stands for a projection of the
    # lambda's generated point; a message about it shows no internal name
    # and points at the name's token
    src = (NEGATIVE_DIR / "05-wrong-hom2-edge.sstt").read_text()
    body = "\\(t1, t2). f t1"
    assert body in src
    path = tmp_path / "swapped.sstt"
    path.write_text(src.replace(body, "\\(t1, t2). t1 f"))
    diag, _ = _first(corpus, ledger, path)
    assert diag.kind == "type-mismatch"
    assert "$" not in diag.message and "cube variable" in diag.message
    t1 = path.read_text().rindex("t1 f")
    assert diag.span.start <= t1 and t1 + 2 <= diag.span.end


def test_unsolved_obligations_are_shown_in_normal_form(corpus, ledger, tmp_path):
    # the obligation of 07-tope-unsolved is snd (t2, t1) <= fst (t2, t1)
    diag, _ = _first(corpus, ledger, NEGATIVE_DIR / "07-tope-unsolved.sstt")
    assert diag.kind == "tope-unsolved"
    assert diag.message == ("the point is not provably inside the function's "
                            "shape (needed: t1 <= t2)")
    path = tmp_path / "uncovered.sstt"
    path.write_text("def f (t1 t2 : 2) (A : U) (a : A) : A :=\n"
                    "  [ fst (t1, t2) === 0 |-> a | snd (t1, t2) === 1 |-> a ]\n")
    diag, _ = _first(corpus, ledger, path)
    assert diag.kind == "tope-unsolved"
    assert diag.message == ("the case split does not cover its context "
                            "(needed: t1 === 0 \\/ t2 === 1)")


def test_checker_fault_is_an_internal_diagnostic(corpus, ledger, tmp_path, monkeypatch):
    from sstt.checker import Checker

    def broken(self, ctx, e):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(Checker, "infer", broken)
    path = tmp_path / "fault.sstt"
    path.write_text("def f (A : U) (x : A) : A := x\n")
    diag, _ = _first(corpus, ledger, path)
    assert (diag.kind, diag.decl) == ("internal", "f")
    assert "ZeroDivisionError" in diag.message and "'f'" in diag.message


@pytest.mark.parametrize("solver, source", [
    ("entails", "def f (t : 2) (A : U) (a : A) : A := [t === 0 |-> a | t === 1 |-> a]\n"),
    # the context is split only to compare terms that are not alpha-equal
    ("dnf", "def idf (A : U) (a : A) : A := a\n"
            "def f (A : U) (a : A) : Id A (idf A a) a := refl\n"),
], ids=["entails", "dnf"])
def test_tope_solver_fault_is_an_internal_diagnostic(corpus, ledger, tmp_path, monkeypatch,
                                                     solver, source):
    # a solver error is a kernel bug, not a sequent that fails to hold nor
    # a context that does not split
    from sstt.tope import TopeError

    def broken(arg):
        raise TopeError("injected")

    monkeypatch.setattr(f"sstt.checker.{solver}", broken)
    path = tmp_path / "fault.sstt"
    path.write_text(source)
    diag, _ = _first(corpus, ledger, path)
    assert (diag.kind, diag.decl) == ("internal", "f")
    assert "TopeError: injected" in diag.message


def test_diagnostics_do_not_depend_on_earlier_checks(corpus, ledger):
    # generated names are chosen against the names in scope, not by a
    # process-wide counter, so a message reads the same on every check
    path = NEGATIVE_DIR / "16-j-bad-motive.sstt"
    first = _first(corpus, ledger, path)[0]
    assert first.message == ("expected a term of type (v_1 : A) -> Id A u v_1 -> U, "
                             "found one of type A")
    assert _first(corpus, ledger, path)[0] == first
    _first(corpus, ledger, NEGATIVE_DIR / "05-wrong-hom2-edge.sstt")
    again = _first(corpus, ledger, path)[0]
    assert (again.message, again.span) == (first.message, first.span)


def test_parser_fault_is_an_internal_diagnostic(corpus, ledger, tmp_path, monkeypatch):
    from sstt.parser import Parser

    def broken(self, t):
        raise KeyError("injected")

    monkeypatch.setattr(Parser, "term_name", broken)
    path = tmp_path / "fault.sstt"
    path.write_text("def g (A : U) : U := U\ndef f (A : U) (x : A) : A := x\n")
    diag, env = _first(corpus, ledger, path)
    assert diag.kind == "internal" and "KeyError" in diag.message
    # a file that does not parse adds nothing to the environment
    assert "g" not in env.decls


def test_scope_errors_come_in_reading_order(corpus, ledger, tmp_path):
    # names are resolved while the file is read, so an unbound name before
    # a syntax error is the error reported
    path = tmp_path / "order.sstt"
    path.write_text("def f (A : U) : U := B\ndef g (A : U : U := A\n")
    diag, env = _first(corpus, ledger, path)
    assert (diag.kind, diag.message) == ("scope", "unbound name 'B'")
    assert "f" not in env.decls
