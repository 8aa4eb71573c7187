"""Tests of the benchmark itself: its inputs, its answer checks, its tracer
and its limits.  Run from the root of a checkout with

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from sequents import Oracle, holds_at, refutes, shape_cases  # noqa: E402

EXACT = ("calls", "tokens", "decls", "fuel_total", "fuel_max", "dnf_width_max",
         "entails_repeats", "entails_refuted", "atoms_max")


def exact_counts(trace):
    return {k: trace[k] for k in EXACT}


def test_same_seed_same_inputs():
    a, b, other = run.random_inputs(7), run.random_inputs(7), run.random_inputs(8)
    texts = lambda inputs: [s["text"] for s in inputs[0] + inputs[1]]
    assert texts(a) == texts(b) and a[2] == b[2]
    assert texts(a) != texts(other)
    assert len(set(s["text"] for s in a[0])) == run.RANDOM_BATCH


def test_oracle_is_brute_force_over_a_chain():
    oracle = Oracle()
    hyp = ("and", ("le", "t1", "t2"), ("le", "t2", "t1"))
    assert oracle.holds(2, hyp, ("eq", "t1", "t2"))
    assert not oracle.holds(2, ("le", "t1", "t2"), ("eq", "t1", "t2"))
    assert not oracle.holds(1, ("top",), ("eq", "t1", "0"))


def test_shape_answers_follow_from_the_construction():
    for n in range(1, 5):
        cases = {c["name"].split("-", 1)[1]: c for c in shape_cases(n)}
        simplex = cases["simplex-in-boundary"]
        interior = " < ".join(["0"] + [f"t{i}" for i in range(n, 0, -1)] + ["1"])
        assert refutes(interior, simplex["hyp"], simplex["goal"])
        # a model on a face is not a counter-model
        on_face = " < ".join(["0"] + [f"t{i}" for i in range(n, 1, -1)] + ["t1 = 1"])
        assert not refutes(on_face, simplex["hyp"], simplex["goal"])
        value = {"0": 0, "1": n + 1, **{f"t{i}": n + 1 - i for i in range(1, n + 1)}}
        assert holds_at(simplex["hyp"], value.__getitem__)


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(25)) == (14, 60)
    assert run.tail(range(1000)) == (989, 99)
    assert run.tail(range(5)) == (2, 50)


def test_same_seed_same_exact_counts():
    inputs = run.random_inputs(3)
    task = {"kind": "random", "batch": [s["text"] for s in inputs[0][:300]],
            "warmup": [s["text"] for s in inputs[1][:30]], "trace": True}
    first, err = run.run_child(task)
    second, _ = run.run_child(task)
    assert err is None
    assert exact_counts(first["trace"]) == exact_counts(second["trace"])
    corpus = {"kind": "corpus", "dir": str(run.DATA / "corpus"), "trace": True}
    first, err = run.run_child(corpus)
    second, _ = run.run_child(corpus)
    assert err is None
    assert exact_counts(first["trace"]) == exact_counts(second["trace"])
    assert first["trace"]["fuel_max"] > 0 and first["trace"]["calls"]["tope.entails"] > 0


def test_corpus_answers_come_from_the_concordance():
    rows, ledger = run._corpus_expectations()
    assert len(rows) == 129
    res, err = run.run_child({"kind": "corpus", "dir": str(run.DATA / "corpus")})
    assert err is None and run.verify_corpus(res, rows, ledger) is None
    wrong_file = [{**rows[0], "file": "13-spaces.sstt"}] + rows[1:]
    assert "not accepted" in run.verify_corpus(res, wrong_file, ledger)
    assert "ledger" in run.verify_corpus(res, rows, ledger | {"extra_axiom"})


def test_wrong_expected_kind_counts_as_failed():
    cases = run._reject_cases()[:3]
    wrong = [(cases[0][0], "fuel")] + cases[1:]
    tally, metrics, _ = run.rejects(1, 0, False, cases=wrong)
    assert tally.failed == tally.attempted // 3 > 0
    assert not tally.correct
    assert metrics["ok_share"][0] < 1


def test_wrong_expected_verdict_counts_as_failed():
    batch, warmup, expected = run.random_inputs(5)
    batch, warmup, expected = batch[:200], warmup[:20], expected[:200]
    flipped = [not expected[0]] + expected[1:]
    tally, metrics, _ = run.tope_random(5, 0, False, inputs=(batch, warmup, flipped))
    assert tally.failed > 0 and not tally.correct
    cases = shape_cases(2)
    cases[0] = {**cases[0], "holds": not cases[0]["holds"]}
    tally, metrics, _ = run.tope_shapes(1, 0, False, cases_by_n={2: cases})
    assert tally.failed == run.MIN_PASSES and not tally.correct
    assert metrics["ok_share"][0] == pytest.approx(3 / 4)


def test_frontier_case_is_limited_and_recorded_as_failed():
    tally = run.Tally()
    run.shapes_pass(tally, {7: shape_cases(7)}, [7])
    assert (tally.attempted, tally.failed) == (4, 4)
    assert tally.correct  # hitting a limit is a failure, not a wrong answer
    assert all("time limit" in p for p in tally.problems)


def test_traced_run_fails_when_a_layer_records_no_calls():
    trace = {"calls": {"parser": 3}}
    with pytest.raises(run.BenchError, match="no calls of scope"):
        run.per_layer("corpus", [(trace, 1.0)], [1.0])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((proc.stdout.strip().splitlines() or [""])[-1])
