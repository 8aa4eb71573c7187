import json
from pathlib import Path

from sstt.corpus import CORPUS_DIR, check_files, load_corpus

DESIGNATED_PROVED = {
    # endpoint laws for arrows
    "arr_src",
    "arr_tgt",
    # uniqueness of initial/terminal objects and of (co)limits
    "initial_unique_iso",
    "terminal_unique_iso",
    "colimit_unique",
    "limit_unique",
    # universal property of (co)limits via representability
    "colimit_univ_prop",
    "limit_univ_prop",
    # round-trip laws for splitting arrows in total types
    "total_split_pair",
    "total_pair_split",
    "arr_sigma_round",
    "ext_swap_unswap",
    "ext_unswap_swap",
}


def test_every_file_checks(corpus):
    for report in corpus.files:
        assert report.ok, f"{report.path}: {report.diagnostics}"


def test_all_files_present(corpus):
    on_disk = sorted(p.name for p in CORPUS_DIR.glob("*.sstt"))
    reported = sorted(Path(r.path).name for r in corpus.files)
    assert reported == on_disk and len(on_disk) >= 10


def test_closed_ledger(corpus, ledger):
    manifest = corpus.to_json()
    assert set(manifest["axioms"]) == ledger


def test_designated_theorems_proved(corpus):
    manifest = corpus.to_json()
    assert DESIGNATED_PROVED <= set(manifest["theorems_proved"])


def test_yoneda_lemma_is_proved_and_the_ledger_holds_only_assumptions(corpus, ledger):
    # with eta at extension types the directed Yoneda lemma, plain and
    # dependent, is proved, so none of its parts is postulated
    proved = set(corpus.to_json()["theorems_proved"])
    for name in ("yoneda_evid_yon", "yoneda_yon_evid", "yoneda_dependent"):
        assert name in proved and corpus.env.decls[name].body is not None, name
    assert ledger == {"funext", "relfunext", "representable_initial",
                      "representable_terminal", "arrcoerce", "dua"}


def test_stated_theorems_have_no_body(corpus):
    for name in corpus.to_json()["theorems_stated"]:
        assert corpus.env.decls[name].body is None


def test_counts_add_up(corpus):
    manifest = corpus.to_json()
    total = sum(manifest["counts"].values())
    assert total == sum(len(r.decls) for r in corpus.files)


def test_manifest_is_json_serializable(corpus):
    text = json.dumps(corpus.to_json(), sort_keys=True)
    assert json.loads(text)["ok"] is True


def test_corpus_fast(corpus):
    assert corpus.elapsed < 10.0


def test_corpus_checks_within_a_small_fuel_budget():
    # the checker unfolds only the types it takes apart: no declaration
    # needs more than 118 steps, where unfolding every expected type took 248
    result = load_corpus(fuel=130)
    assert result.ok, [d.to_json() for d in result.diagnostics]


def test_env_holds_only_checked_declarations(tmp_path):
    # a declaration that fails, and every one after it, stay out of the
    # environment, so a later file cannot use them
    first = tmp_path / "a.sstt"
    first.write_text("def good : U := Unit\n"
                     "def bad (A : U) (a : A) : A := A\n"
                     "def later : U := Unit\n")
    reports, env = check_files([first])
    assert [d.kind for d in reports[0].diagnostics] == ["type-mismatch"]
    assert list(env.decls) == ["good"]
    second = tmp_path / "b.sstt"
    second.write_text("def use (A : U) (a : A) : A := bad A a\n")
    reports, _ = check_files([second], env=env)
    assert [(d.kind, d.message) for d in reports[0].diagnostics] == [
        ("scope", "unbound name 'bad'")]
