"""Child process of the benchmark.

Reads one JSON task on stdin, runs it against the sstt package under the
task's ``src`` directory and prints one JSON object on the last line of
stdout.  Only the work a user waits for is timed; importing sstt and
building inputs are not.  With ``"trace": true`` the timed work runs under
the span tracer and the result carries its summary.

Run by ``run.py``; to try a task by hand::

    echo '{"kind": "shapes", "src": "src", "sequents": ["t : 2 | TOP |- t <= 1"]}' \\
        | python3 bench/worker.py
"""

from __future__ import annotations

import copy
import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracer import Tracer


def _clear_caches() -> None:
    """Forget decided sequents, so that each sample decides its own."""
    import sstt.tope

    clear = getattr(sstt.tope, "clear_caches", None)
    if clear is not None:
        clear()


def _traced(task, work):
    """Run ``work()``; return its value, its wall time and the trace."""
    tracer = Tracer() if task.get("trace") else None
    if tracer:
        tracer.install()
    start = perf_counter()
    try:
        value = work()
    finally:
        wall = perf_counter() - start
        if tracer:
            tracer.uninstall()
    return value, wall, tracer.summary() if tracer else None


def run_corpus(task) -> dict:
    import sstt.corpus

    result, wall, trace = _traced(
        task, lambda: sstt.corpus.load_corpus(Path(task["dir"])))
    return {"wall_s": wall, "manifest": result.to_json(),
            "shapes": sorted(result.env.shapes), "trace": trace}


def run_rejects(task) -> dict:
    import sstt.corpus

    base = sstt.corpus.load_corpus(Path(task["dir"]))
    if not base.ok:
        raise RuntimeError("the corpus snapshot does not check")
    paths = [Path(p) for p in task["files"]]

    def check(path):
        _clear_caches()
        env = copy.copy(base.env)
        env.decls = dict(env.decls)
        env.shapes = dict(env.shapes)
        start = perf_counter_ns()
        try:
            reports, _ = sstt.corpus.check_files([path], env=env, ledger=base.ledger)
            kinds = [d.kind for r in reports for d in r.diagnostics] or [None]
        except Exception as e:  # a crash is a failed operation, not the end of the run
            kinds = [f"crash: {e!r}"]
        return kinds[0], perf_counter_ns() - start

    for path in paths:  # warm-up pass, not reported
        check(path)
    kinds, times = [], []

    def one_pass():
        results = [check(p) for p in paths]
        kinds.append([k for k, _ in results])
        times.append([t for _, t in results])

    wall, trace = _run_passes(task, one_pass)
    return {"wall_s": wall, "kinds": kinds, "times_ns": times, "trace": trace}


def run_shapes(task) -> dict:
    import sstt.parser
    import sstt.tope

    if task.get("mem_mb"):
        limit = task["mem_mb"] << 20
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
    if task.get("limit_s"):
        # SIGALRM keeps its default action: the process ends when time is up.
        signal.setitimer(signal.ITIMER_REAL, task["limit_s"])

    def decide_all():
        out = []
        for src in task["sequents"]:
            start = perf_counter_ns()
            try:
                result = sstt.tope.entails(sstt.parser.parse_sequent_source(src))
                model = result.counter_model
                answer = [bool(result), None if model is None else str(model)]
            except Exception as e:  # a crash is a failed operation
                answer = [None, f"crash: {e!r}"]
            out.append(answer + [perf_counter_ns() - start])
        return out

    decided, wall, trace = _traced(task, decide_all)
    signal.setitimer(signal.ITIMER_REAL, 0)
    return {"wall_s": wall, "decided": decided, "trace": trace}


def run_random(task) -> dict:
    import sstt.parser
    import sstt.tope

    parse = sstt.parser.parse_sequent_source
    warmup = [parse(s) for s in task["warmup"]]
    batch = [parse(s) for s in task["batch"]]
    for seq in warmup:
        sstt.tope.entails(seq)
    verdicts, times = [], []

    def one_pass():
        _clear_caches()
        entails = sstt.tope.entails
        bits, ns = [], []
        for seq in batch:
            start = perf_counter_ns()
            try:
                bit = "1" if entails(seq).yes else "0"
            except Exception:  # a crash is a failed operation
                bit = "E"
            ns.append(perf_counter_ns() - start)
            bits.append(bit)
        verdicts.append("".join(bits))
        times.append(ns)

    wall, trace = _run_passes(task, one_pass)
    return {"wall_s": wall, "verdicts": verdicts, "times_ns": times, "trace": trace}


def _run_passes(task, one_pass):
    """A traced task runs ``one_pass`` once.  Otherwise it runs for
    ``task["seconds"]`` and at least ``task["min_passes"]`` times, moving
    to the next CPU it may use before each pass, so that every CPU's speed
    counts alike.  Returns the wall time spent and the trace."""
    if task.get("trace"):
        _, wall, trace = _traced(task, one_pass)
        return wall, trace
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    deadline = start + task.get("seconds", 0)
    passes = 0
    while passes < task.get("min_passes", 1) or perf_counter() < deadline:
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        one_pass()
        passes += 1
    os.sched_setaffinity(0, cpus)
    return perf_counter() - start, None


TASKS = {"corpus": run_corpus, "rejects": run_rejects,
         "shapes": run_shapes, "random": run_random}


def main() -> int:
    task = json.load(sys.stdin)
    if "cpu" in task:
        os.sched_setaffinity(0, {task["cpu"]})
    src = Path(task["src"]).resolve()
    sys.path.insert(0, str(src))
    import sstt

    if not Path(sstt.__file__).resolve().is_relative_to(src):
        print(f"imported sstt from {sstt.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = TASKS[task["kind"]](task)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
