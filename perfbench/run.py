"""Run one benchmark workload against the engine in ``src/`` and print its
metrics.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 0

The engine is imported from the ``src/`` directory next to this one and
driven in-process by one closed-loop client.  Passes repeat until
``--seconds`` have elapsed (at least one pass).  Every op's output is
checked against ``reference.json`` and against independent algebraic
facts.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
untraced and traced passes alternate, and the metrics are its per-layer
ones from the traced passes, including the tracing overhead.  Lines
before it carry the run's environment and failure details.  Spans of traced passes are written to
``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

from layers import SOURCES, TARGETS, layer_values
from tracer import Tracer, leftover_wrappers
from workloads import WORKLOADS, WRONG

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per time point: before the first pass and after every pass, so
#: that setup_s, their median, is not taken from one moment of the run.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (missing engine or traced function,
    leftover wrappers, a metric it cannot give)."""


def metric_units(kind):
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics."""
    try:
        with open(SPEC) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# engine import and set-up

def import_engine():
    """Import ``vira`` afresh from ``src/`` (dropping any loaded copy)."""
    if not os.path.isfile(os.path.join(SRC, "vira", "__init__.py")):
        raise BenchError(f"no engine source at {SRC}/vira")
    for name in [m for m in sys.modules if m == "vira" or m.startswith("vira.")]:
        del sys.modules[name]
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    vira = importlib.import_module("vira")
    importlib.import_module("vira.suite")
    importlib.import_module("vira.cli")
    if not os.path.realpath(vira.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported vira from {vira.__file__}, not from {SRC}")
    return vira


def setup(workload, seed, reference, times):
    """Import the engine afresh and build the inputs, SETUP_REPEATS times.
    Appends each duration to ``times``; returns the last inputs."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_engine()
        inputs = workload.setup(seed, reference)
        times.append(time.perf_counter() - start)
    return inputs


def environment(workload, seed):
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_impl": sys.modules["vira.kernel"].IMPL,
        "commit": git_commit(),
    }


def git_commit():
    """The checkout's commit from ``.git``, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# passes

def run_pass(workload, inputs, tracer=None):
    """One pass: every op once, each on a cold memo.  Returns
    ``(wall_s, records)`` with a record per op."""
    kernel = sys.modules["vira.kernel"]
    ops = workload.ops(inputs)
    records = []
    gc.collect()
    start = time.perf_counter()
    for index, (label, fn, meta) in enumerate(ops):
        kernel.cache_clear()
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # every op failure is recorded, none aborts the run
            result, error = None, exc
        t1 = time.perf_counter()
        records.append({"label": label, "meta": meta, "latency": t1 - t0,
                        "memo": kernel.cache_size(), "result": result, "error": error})
    wall = time.perf_counter() - start
    kernel.cache_clear()  # a module replaced by the next set-up keeps no memo alive
    return wall, records


def judge(workload, records):
    """Classify each op: ``kind`` None when it succeeded with a correct
    output, else the exception type, ``exit N`` or ``wrong output``.
    Drops the op results."""
    for rec in records:
        error = rec.pop("error")
        result = rec.pop("result")
        meta = rec.pop("meta")
        if error is not None:
            rec["kind"], rec["detail"] = type(error).__name__, [str(error)[:200]]
            continue
        try:
            rec["kind"], rec["detail"] = workload.judge(meta, result)
        except Exception as exc:  # an unreadable output is a wrong output
            rec["kind"], rec["detail"] = WRONG, [f"{type(exc).__name__}: {exc}"]
    return records


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes, setup_s):
    walls = [wall for wall, _ in passes]
    latencies = [r["latency"] for _, records in passes for r in records]
    ok = sum(1 for _, records in passes for r in records if r["kind"] is None)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(walls),
        "ops_per_s": ok / sum(walls),
        "op_p50_ms": percentile(latencies, 50)[0] * 1e3,
        "op_p99_ms": percentile(latencies, 99)[0] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tally(passes):
    attempted = failed = 0
    wrong = False
    kinds: dict[str, dict] = {}
    for _, records in passes:
        for r in records:
            attempted += 1
            if r["kind"] is None:
                continue
            failed += 1
            wrong = wrong or r["kind"] == WRONG
            entry = kinds.setdefault(r["kind"], {"count": 0, "example": r["label"],
                                                 "detail": r["detail"][:3]})
            entry["count"] += 1
    return attempted, failed, not wrong, kinds


def details(passes):
    samples = sum(len(records) for _, records in passes)
    return {
        "passes": len(passes),
        "pass_walls_s": [wall for wall, _ in passes],
        "op_samples": samples,
        "op_p99_samples_beyond": percentile(range(samples), 99)[1],
        "kernel_memo_words": max(r["memo"] for _, recs in passes for r in recs),
    }


# ---------------------------------------------------------------------------

def measure(workload, seed, reference, seconds, trace):
    """Set up, then run passes until ``seconds`` have elapsed, at least one,
    setting up again after each pass.  When tracing, untraced and traced
    passes alternate and at least one of each runs.  Returns the untraced
    passes, the traced passes with their tracers, and the set-up times."""
    setup_times = []
    inputs = setup(workload, seed, reference, setup_times)
    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            try:
                tracer.install(TARGETS)
            except LookupError as exc:
                raise BenchError(exc) from None
            try:
                wall, records = run_pass(workload, inputs, tracer)
            finally:
                tracer.restore()
            traced.append((wall, judge(workload, records), tracer))
        else:
            leftover = leftover_wrappers()
            if leftover:
                raise BenchError(f"wrapped functions left in place: {leftover}")
            wall, records = run_pass(workload, inputs)
            untraced.append((wall, judge(workload, records)))
        if time.perf_counter() - begin >= seconds and (traced or not trace):
            return untraced, traced, setup_times
        inputs = setup(workload, seed, reference, setup_times)


def per_layer(names, untraced, traced):
    untraced_s = statistics.median(wall for wall, _ in untraced)
    attempted, failed, _, _ = tally(untraced + [(w, r) for w, r, _ in traced])
    per_pass = []
    for wall, records, tracer in traced:
        extra = {
            "memo_words": max(r["memo"] for r in records),
            "trace.pass_s": wall,
            "trace.untraced_pass_s": untraced_s,
            "trace.overhead_ratio": wall / untraced_s,
            "fail_ratio": failed / attempted,
        }
        per_pass.append(layer_values(names, tracer.summary(), tracer.counters, extra))
    return {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}


def write_spans(workload, seed, traced):
    os.makedirs(OUT, exist_ok=True)
    paths = []
    for i, (_, _, tracer) in enumerate(traced):
        path = os.path.join(OUT, f"spans-{workload}-seed{seed}-pass{i}.tsv.gz")
        tracer.write(path)
        paths.append(os.path.relpath(path, ROOT))
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        unknown = sorted(set(units) - set(SOURCES)) if args.trace else []
        if unknown:
            raise BenchError(f"no source for metrics {unknown}")
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        untraced, traced, setup_times = measure(
            workload, args.seed, reference, args.seconds, args.trace)
        env = environment(args.workload, args.seed)
        if args.trace:
            values = per_layer(list(units), untraced, traced)
        else:
            values = end_to_end(untraced, statistics.median(setup_times))
        unknown = sorted(set(units) - set(values))
        if unknown:
            raise BenchError(f"no value for metrics {unknown}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    all_passes = untraced + [(w, r) for w, r, _ in traced]
    attempted, failed, correct, kinds = tally(all_passes)
    info = {"env": env, "failures": kinds, **details(untraced)}
    if args.trace:
        info["spans"] = write_spans(args.workload, args.seed, traced)
    print("info " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
