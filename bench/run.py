"""End-to-end and per-layer benchmark for sstt.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Runs from a checkout and measures the sstt package under its ``src``.  This
process never imports sstt: every measurement runs in a child process
(``worker.py``), one at a time, and every verdict is checked here against an
answer that does not come from sstt.  Workloads (see README.md):

- ``corpus``: one full check of the library snapshot per fresh process;
- ``rejects``: the ill-typed snapshot files, each against the corpus;
- ``tope-shapes``: simplex, boundary, horn and chain sequents at 1-12 atoms;
- ``tope-random``: a seeded batch of random sequents over 3-5 atoms.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a traced run replaces it with the
per-layer metrics.  Lines before it are a report for people.  Exit status:
0 measured, 1 the benchmark could not measure, 2 usage error or no sources.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from sequents import Oracle, random_batch, refutes, shape_cases

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
WORKER = BENCH / "worker.py"

SETUP_REPEATS = 5          # fresh interpreters timed per run for setup_s
IMPORTTIME_REPEATS = 3
MIN_CORPUS_CHECKS = 20     # enough for a tail percentile above the median
MIN_PASSES = 3
IN_REACH = range(1, 7)     # tope-shapes atom counts decided to the end
FRONTIER = range(7, 13)    # ... and those run under the limits below
FRONTIER_LIMIT_S = 1.0
FRONTIER_MEM_MB = 1024
SHAPES_PASS_S = 3.3        # one in-reach tope-shapes pass per this many seconds
CHILD_TIMEOUT_S = 150      # backstop for any child that stops responding
RANDOM_BATCH = 3000
RANDOM_WARMUP = 300

WORKLOADS = ("corpus", "rejects", "tope-shapes", "tope-random")

# Timed work cycles through the CPUs this process may use: on a shared
# host their speeds differ, and a run should not depend on where the
# scheduler happened to put a child.
CPUS = sorted(os.sched_getaffinity(0))

# Layers, named after span names, that each workload must reach.
REQUIRED = {
    "corpus": ["parser", "scope", "checker.check_decl", "checker.infer",
               "checker.whnf", "checker.equal", "core.subst", "core.free_vars",
               "tope.entails", "tope.normalize", "tope.dnf", "cube.normalize"],
    "rejects": ["parser", "scope", "checker.check_decl", "checker.infer",
                "checker.whnf", "checker.equal", "core.subst", "tope.entails",
                "printer"],
    "tope-shapes": ["parser", "tope.entails", "tope.normalize", "tope.dnf",
                    "cube.normalize"],
    "tope-random": ["tope.entails", "tope.normalize", "tope.dnf",
                    "cube.normalize"],
}


class BenchError(Exception):
    """The benchmark could not measure."""


# ---------------------------------------------------------------------------
# child processes

def _env() -> dict:
    """The children's environment: sstt from ``src``, imported with bytecode
    caches as an installed package would be."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(task: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run one worker task.  Returns ``(result, None)``, or ``(None, why)``
    when the child crashed or hit a limit; it has ended either way."""
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps({"src": str(SRC), **task}), timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"no answer after {timeout:.0f} s"
    if proc.returncode == -signal.SIGALRM:
        return None, "time limit"
    if proc.returncode != 0:
        if "MemoryError" in err:
            return None, "memory limit"
        last = err.strip().splitlines()[-1:] or [""]
        return None, f"exit {proc.returncode}: {last[0]}"
    return json.loads(out.strip().splitlines()[-1]), None


def import_times(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import ``sstt.cli`` and exit.
    One untimed import first writes the bytecode caches."""
    cmd = [sys.executable, "-c", "import sstt.cli"]
    times = []
    for i in range(repeats + 1):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True)
        if i:
            times.append(perf_counter() - start)
    return times


def import_layers() -> dict:
    """Import time of sstt's own modules and of numpy, from ``-X importtime``
    (median of a few fresh interpreters)."""
    sstt_s, numpy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sstt.cli"],
                              cwd=ROOT, env=_env(), check=True,
                              capture_output=True, text=True)
        own = numpy = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "sstt" or name.startswith("sstt."):
                own += int(parts[0])
            elif name == "numpy" and not numpy:
                numpy = int(parts[1])
        sstt_s.append(own / 1e6)
        numpy_s.append(numpy / 1e6)
    return {"setup.sstt_import_s": statistics.median(sstt_s),
            "setup.numpy_import_s": statistics.median(numpy_s)}


# ---------------------------------------------------------------------------
# statistics

def tail(samples):
    """``(value, percentile)``: the highest whole percentile, at most 99,
    that has at least ten samples above it.  With fewer than 20 samples no
    percentile above the median qualifies, and the median is returned."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50
    p = min(99, 100 * (n - 10) // n)
    return xs[math.ceil(p * n / 100) - 1], p


class Tally:
    """Operations attempted and failed, and whether any answer was wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, problem: str | None, wrong: bool = True) -> None:
        """Count one operation; ``problem`` says why it failed, and
        ``wrong=False`` marks a failure that is not a wrong answer."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.correct &= not wrong
            if len(self.problems) < 5:
                self.problems.append(problem)


def _ms(ns_lists):
    return [t / 1e6 for ts in ns_lists for t in ts]


def _pass_ms(ns_lists):
    return [sum(ts) / 1e6 for ts in ns_lists]


def e2e_metrics(setup, rss, pass_ms, tally) -> dict:
    """The metrics every workload reports.  ``pass_ms`` holds the times of
    one unit of work: a corpus check, or one pass over a workload's
    inputs."""
    if not pass_ms:
        raise BenchError("no operation completed: " + "; ".join(tally.problems))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_share": (1 - tally.failed / tally.attempted, "share"),
        "pass_ms_p50": (statistics.median(pass_ms), "ms"),
    }


def described_tail(samples, what):
    value, p = tail(samples)
    return value, f"p{p} of {len(samples)} {what}"


# ---------------------------------------------------------------------------
# per-layer metrics from traces

def merge_traces(traces: list[dict]) -> dict:
    """Add up the traces of several processes that share one pass."""
    out = {"calls": {}, "self_s": {}, "entails_s_by_atoms": {}}
    for t in traces:
        for key in ("calls", "self_s", "entails_s_by_atoms"):
            for k, v in t[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k in ("tokens", "decls", "fuel_total", "entails_repeats", "entails_refuted"):
            out[k] = out.get(k, 0) + t[k]
        for k in ("fuel_max", "dnf_width_max", "atoms_max"):
            out[k] = max(out.get(k, 0), t[k])
    return out


def layer_metrics(t: dict, wall_s: float) -> dict:
    calls, self_s = t["calls"], t["self_s"]

    def c(name):
        return calls.get(name, 0)

    def s(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    def share(num, den):
        return num / den if den else 0.0

    m = {
        "parser.calls": c("parser"), "parser.self_s": s("parser"),
        "parser.tokens": t["tokens"],
        "parser.tokens_per_s": share(t["tokens"], s("parser")),
        "scope.calls": c("scope"), "scope.self_s": s("scope"), "scope.decls": t["decls"],
        "checker.decls": c("checker.check_decl"), "checker.self_s": s("checker"),
        "checker.fuel_total": t["fuel_total"], "checker.fuel_max": t["fuel_max"],
        "core.subst.calls": c("core.subst"), "core.subst.self_s": s("core.subst"),
        "core.free_vars.calls": c("core.free_vars"),
        "core.free_vars.self_s": s("core.free_vars"), "core.self_s": s("core"),
        "tope.entails.calls": c("tope.entails"),
        "tope.entails.self_s": s("tope.entails"),
        "tope.entails.repeat_share": share(t["entails_repeats"], c("tope.entails")),
        "tope.entails.refuted_share": share(t["entails_refuted"], c("tope.entails")),
        "tope.normalize.calls": c("tope.normalize"),
        "tope.normalize.self_s": s("tope.normalize"),
        "tope.dnf.calls": c("tope.dnf"), "tope.dnf.width_max": t["dnf_width_max"],
        "tope.atoms_max": t["atoms_max"], "tope.self_s": s("tope"),
        "cube.normalize.calls": c("cube.normalize"),
        "cube.normalize.self_s": s("cube.normalize"),
        "printer.calls": c("printer"), "printer.self_s": s("printer"),
        "trace.wall_s": wall_s,
    }
    for k in ("infer", "whnf", "equal"):
        m[f"checker.{k}.calls"] = c(f"checker.{k}")
        m[f"checker.{k}.self_s"] = s(f"checker.{k}")
    for n in range(1, 13):
        m[f"tope.n{n}_s"] = t["entails_s_by_atoms"].get(str(n), 0.0)
    layers = ("parser", "scope", "checker", "core", "tope", "cube", "printer")
    m["trace.layer_share"] = share(sum(s(x) for x in layers), wall_s)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def per_layer(workload: str, runs: list[tuple[dict, float]], plain_walls: list[float]) -> dict:
    """Per-layer metrics from traced repeats ``(trace, wall)``: exact counts
    from the first repeat and the median of each time over the repeats,
    plus the tracing overhead against untraced repeats of the same work."""
    first = runs[0][0]["calls"]
    missing = [name for name in REQUIRED[workload] if not first.get(name)]
    if missing:
        raise BenchError(f"{workload}: the traced run recorded no calls of {', '.join(missing)}")
    each = [layer_metrics(t, wall) for t, wall in runs]
    metrics = {}
    for k in each[0]:
        unit = unit_of(k)
        exact = unit == "count" or k.endswith(("repeat_share", "refuted_share"))
        metrics[k] = (each[0][k] if exact else statistics.median(m[k] for m in each), unit)
    overhead = statistics.median(w for _, w in runs) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics.update((k, (v, "s")) for k, v in import_layers().items())
    return metrics


def _wall(res) -> float:
    if res is None:
        raise BenchError("a repeat of the traced run failed")
    return res["wall_s"]


def _trace(res) -> tuple[dict, float]:
    return res["trace"], _wall(res)


def traced_pairs(seconds, untraced, traced):
    """Alternate untraced and traced repeats of one unit of work for
    ``seconds``, at least once each.  Both repeats of a pair run on the same
    CPU, and the pairs cycle through the CPUs."""
    plain, runs = [], []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        cpu = CPUS[len(runs) % len(CPUS)]
        plain.append(untraced(cpu))
        runs.append(traced(cpu))
    return plain, runs


# ---------------------------------------------------------------------------
# workloads

def _corpus_expectations():
    with open(DATA / "concordance.tsv", newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    ledger = set()
    for line in (DATA / "corpus" / "axioms.ledger").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            ledger.add(line)
    return rows, ledger


def verify_corpus(res, rows, ledger) -> str | None:
    """Every concordance row accepted in its file, nothing else accepted,
    no diagnostic, and the axioms used are exactly the ledger."""
    manifest = res["manifest"]
    where = {}
    for f in manifest["files"]:
        if f["diagnostics"]:
            return f"{Path(f['path']).name}: {f['diagnostics'][0]['kind']}"
        for name in f["decls"]:
            where[name] = Path(f["path"]).name
    shapes = set(res["shapes"])
    documented = set()
    for row in rows:
        documented.add(row["decl"])
        if where.get(row["decl"]) != row["file"] and not (
                row["decl"] in shapes and row["file"] == "00-prelude.sstt"):
            return f"{row['decl']} not accepted in {row['file']}"
    extra = set(where) - documented
    if extra:
        return f"undocumented declarations: {sorted(extra)[:3]}"
    if not manifest["ok"] or set(manifest["axioms"]) != ledger:
        return "axioms used differ from the ledger"
    return None


def corpus(seed, seconds, trace):
    rows, ledger = _corpus_expectations()
    task = {"kind": "corpus", "dir": str(DATA / "corpus")}
    tally = Tally()

    def one(**extra):
        res, err = run_child({**task, **extra})
        tally.record(err or verify_corpus(res, rows, ledger))
        return res

    if trace:
        plain, runs = traced_pairs(seconds, lambda cpu: _wall(one(cpu=cpu)),
                                   lambda cpu: _trace(one(cpu=cpu, trace=True)))
        return tally, per_layer("corpus", runs, plain), {}
    setup = import_times(SETUP_REPEATS)
    samples, rss = [], []
    start = perf_counter()
    while tally.attempted < MIN_CORPUS_CHECKS or perf_counter() - start < seconds:
        res = one(cpu=CPUS[tally.attempted % len(CPUS)])
        if res is not None:
            samples.append(res["wall_s"] * 1000)
            rss.append(res["rss_mb"])
    metrics = e2e_metrics(setup, rss, samples, tally)
    value, note = described_tail(samples, "checks")
    named = {
        "check_s_p50": (statistics.median(samples) / 1000, "s", f"median of {len(samples)} checks"),
        "check_s_tail": (value / 1000, "s", note),
    }
    return tally, metrics, named


def _reject_cases():
    paths = sorted((DATA / "negative").glob("*.sstt"))
    return [(p, p.with_suffix(".expect").read_text().strip()) for p in paths]


def rejects(seed, seconds, trace, cases=None):
    cases = cases or _reject_cases()
    tally = Tally()
    task = {"kind": "rejects", "dir": str(DATA / "corpus"),
            "files": [str(p) for p, _ in cases]}

    def one(**extra):
        res, err = run_child({**task, **extra}, timeout=CHILD_TIMEOUT_S + extra.get("seconds", 0))
        if res is None:
            raise BenchError(f"rejects child failed: {err}")
        for kinds in res["kinds"]:
            for (path, expected), kind in zip(cases, kinds):
                tally.record(None if kind == expected else
                             f"{path.name}: got {kind}, expected {expected}")
        return res

    if trace:
        plain, runs = traced_pairs(seconds, lambda cpu: _wall(one(cpu=cpu)),
                                   lambda cpu: _trace(one(cpu=cpu, trace=True)))
        return tally, per_layer("rejects", runs, plain), {}
    setup = import_times(SETUP_REPEATS)
    res = one(seconds=seconds, min_passes=MIN_PASSES)
    samples = _ms(res["times_ns"])
    metrics = e2e_metrics(setup, [res["rss_mb"]], _pass_ms(res["times_ns"]), tally)
    value, note = described_tail(samples, "files")
    named = {
        "reject_ms_p50": (statistics.median(samples), "ms", f"median of {len(samples)} files"),
        "reject_ms_tail": (value, "ms", note),
    }
    return tally, metrics, named


def shapes_pass(tally, cases_by_n, ns, traced=False, cpu=None):
    """Decide the tope-shapes cases of each atom count in ``ns``, one child
    per atom count, on ``cpu`` if given.  Returns the time to decide the
    in-reach cases, their peak RSS, and their traces."""
    decide_s, rss, traces = 0.0, [], []
    for n in ns:
        cases = cases_by_n[n]
        task = {"kind": "shapes", "sequents": [c["text"] for c in cases], "trace": traced}
        if cpu is not None:
            task["cpu"] = cpu
        frontier = n in FRONTIER
        if frontier:
            task.update(limit_s=FRONTIER_LIMIT_S, mem_mb=FRONTIER_MEM_MB)
        res, err = run_child(task, timeout=CHILD_TIMEOUT_S)
        for i, case in enumerate(cases):
            if res is None:
                tally.record(f"{case['name']}: {err}", wrong=not frontier)
                continue
            holds, model, _ = res["decided"][i]
            ok = holds == case["holds"] and (
                holds or (model is not None and refutes(model, case["hyp"], case["goal"])))
            tally.record(None if ok else f"{case['name']}: wrong answer {holds} {model}")
        if res is not None and not frontier:
            decide_s += res["wall_s"]
            rss.append(res["rss_mb"])
            if traced:
                traces.append(res["trace"])
    return decide_s, rss, traces


def tope_shapes(seed, seconds, trace, cases_by_n=None):
    """The frontier is decided once per run and the in-reach series a number
    of times fixed by ``seconds``, so that the share of failed cases does
    not depend on the speed of the machine."""
    cases_by_n = cases_by_n or {n: shape_cases(n) for n in list(IN_REACH) + list(FRONTIER)}
    in_reach = [n for n in cases_by_n if n in IN_REACH]
    tally = Tally()
    setup = None if trace else import_times(SETUP_REPEATS)
    shapes_pass(tally, cases_by_n, ns=[n for n in cases_by_n if n in FRONTIER])
    if trace:
        def traced(cpu):
            decide_s, _, traces = shapes_pass(tally, cases_by_n, in_reach, True, cpu)
            return merge_traces(traces), decide_s

        plain, runs = traced_pairs(
            seconds, lambda cpu: shapes_pass(tally, cases_by_n, in_reach, cpu=cpu)[0], traced)
        return tally, per_layer("tope-shapes", runs, plain), {}
    samples, rss = [], []
    for k in range(max(MIN_PASSES, int(seconds / SHAPES_PASS_S))):
        decide_s, pass_rss, _ = shapes_pass(tally, cases_by_n, in_reach, cpu=CPUS[k % len(CPUS)])
        samples.append(decide_s * 1000)
        rss += pass_rss
    metrics = e2e_metrics(setup, rss, samples, tally)
    named = {
        "decide_s": (statistics.median(samples) / 1000, "s",
                     f"median of {len(samples)} passes over n = 1..6"),
    }
    return tally, metrics, named


def random_inputs(seed):
    batch = random_batch(seed, RANDOM_BATCH)
    warmup = random_batch(seed + 1_000_003, RANDOM_WARMUP)
    oracle = Oracle()
    expected = [oracle.holds(s["n"], s["hyp"], s["goal"]) for s in batch]
    return batch, warmup, expected


def tope_random(seed, seconds, trace, inputs=None):
    batch, warmup, expected = inputs or random_inputs(seed)
    tally = Tally()
    task = {"kind": "random", "batch": [s["text"] for s in batch],
            "warmup": [s["text"] for s in warmup]}

    def one(**extra):
        res, err = run_child({**task, **extra}, timeout=CHILD_TIMEOUT_S + extra.get("seconds", 0))
        if res is None:
            raise BenchError(f"tope-random child failed: {err}")
        for verdicts in res["verdicts"]:
            for s, bit, want in zip(batch, verdicts, expected):
                tally.record(None if (bit == "1") == want else
                             f"{s['text']}: expected {want}")
        return res

    if trace:
        plain, runs = traced_pairs(seconds, lambda cpu: _wall(one(cpu=cpu)),
                                   lambda cpu: _trace(one(cpu=cpu, trace=True)))
        return tally, per_layer("tope-random", runs, plain), {}
    setup = import_times(SETUP_REPEATS)
    res = one(seconds=seconds, min_passes=MIN_PASSES)
    samples = _ms(res["times_ns"])
    metrics = e2e_metrics(setup, [res["rss_mb"]], _pass_ms(res["times_ns"]), tally)
    value, note = described_tail(samples, "sequents")
    named = {
        "sequents_per_s": (len(samples) / res["wall_s"], "1/s", f"{len(samples)} sequents"),
        "decide_ms_tail": (value, "ms", note),
    }
    return tally, metrics, named


RUNNERS = {"corpus": corpus, "rejects": rejects,
           "tope-shapes": tope_shapes, "tope-random": tope_random}


# ---------------------------------------------------------------------------
# report

def meta() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"host": platform.node(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit or "unknown"}


def run_workload(name, seed, seconds, trace) -> dict:
    tally, metrics, named = RUNNERS[name](seed, seconds, trace)
    print(f"== {name}: seed {seed}, {seconds} s, trace {int(trace)}")
    failed_share = tally.failed / tally.attempted
    named = {**named, "failed_share": (failed_share, "share",
                                       f"{tally.failed} of {tally.attempted} operations")}
    for k, (v, unit, note) in named.items():
        print(f"   {k:<28} {v:>14.6g} {unit:<6} {note}")
    for k, (v, unit) in metrics.items():
        print(f"   {k:<28} {v:>14.6g} {unit}")
    for problem in tally.problems:
        print(f"   failed: {problem}")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "named": {k: {"value": v, "unit": u, "note": note}
                      for k, (v, u, note) in named.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sstt benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="also write the full result, with host details, here")
    args = ap.parse_args(argv)
    if not (SRC / "sstt" / "__init__.py").is_file():
        print(f"error: no sstt sources under {SRC}", file=sys.stderr)
        return 2
    info = meta()
    print("# sstt benchmark: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps({"meta": info, "seed": args.seed,
                                              "seconds": args.seconds, "trace": args.trace,
                                              "results": results}, indent=1) + "\n")
    if len(results) == 1:
        (r,) = results.values()
        metrics = r["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
