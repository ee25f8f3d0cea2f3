"""Run every workload once and print each end-to-end metric by name and unit.

    python3 perfbench/report.py [--seed N] [--trace] [--baseline FILE]

Each workload of ``BENCHMARK.json`` runs for its ``run_seconds`` in a
fresh process (so ``peak_rss_mb`` is its own).
The table also gives fail_ratio with the failure kinds, the op sample
counts behind the percentiles, and the run environment.  With
``--trace`` a traced run per workload adds the per-layer metrics and the
tracing overhead.  The results go to ``.bench_out/BENCH.json``; with
``--baseline`` an earlier such file is compared metric by metric, and
refused when its environment (kernel, Python, CPU count) differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

COMPARABLE_ENV = ("kernel_impl", "python", "nproc")


def run_workload(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {**json.loads(lines[-1]), "info": info}


def print_result(workload, result):
    info = result["info"]
    print(f"\n{workload}  (kernel {info['env']['kernel_impl']}, python {info['env']['python']}, "
          f"nproc {info['env']['nproc']}, seed {info['env']['seed']}, "
          f"commit {info['env']['commit'] or 'unknown'})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} ops; outputs correct: {result['correct']})")
    for kind, entry in info["failures"].items():
        print(f"    {entry['count']} x {kind}, e.g. {entry['example']}")
    beyond = info["op_p99_samples_beyond"]
    print(f"  {info['op_samples']} op samples in {info['passes']} passes, {beyond} beyond p99"
          + ("" if beyond >= 10 else " (fewer than 10: op_p99_ms is the slowest op)"))


def compare(results, baseline):
    for workload, result in results.items():
        old = baseline.get(workload)
        if old is None:
            continue
        env, old_env = result["info"]["env"], old["info"]["env"]
        differ = [k for k in COMPARABLE_ENV if env[k] != old_env[k]]
        if differ:
            raise SystemExit(f"{workload}: baseline ran with a different "
                             + ", ".join(f"{k} ({old_env[k]} vs {env[k]})" for k in differ)
                             + "; not comparable")
        print(f"\n{workload} against the baseline (new / old)")
        for name, metric in result["metrics"].items():
            before = old["metrics"].get(name, {}).get("value")
            if before:
                print(f"  {name:<34} {metric['value'] / before:>10.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    parser.add_argument("--baseline", help="an earlier .bench_out/BENCH.json")
    args = parser.parse_args(argv)
    baseline = None
    if args.baseline:  # read first: it may be the file this run overwrites
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    with open(run.SPEC) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = run_workload(workload, args.seed, seconds, False)
        print_result(workload, results[workload])
        if args.trace:
            key = f"{workload}+trace"
            results[key] = run_workload(workload, args.seed, seconds, True)
            print_result(key, results[key])
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, "BENCH.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path)}")
    if baseline is not None:
        compare(results, baseline)


if __name__ == "__main__":
    main()
