#!/usr/bin/env python3
"""Repo benchmark: host training throughput of SelSync workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload selsync-des16 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

The first call configures and builds perfbench/ (the SelSync library from
src/ plus the measuring program) into .bench_build/perfbench. With
--trace 0 it prints the end-to-end metrics; with --trace 1 the per-layer
metrics from a separate traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
SPANS_DIR = BUILD_DIR / "spans"

def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date (a no-op when it is)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def program(*args, timeout):
    done = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited "
                         f"{done.returncode}")
    return done.stdout


def measure(workload, seed, seconds, trace):
    """Runs one workload; echoes the program's report and returns its JSON."""
    out = program("run", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace),
                  "--spans-dir", str(SPANS_DIR), timeout=seconds * 3 + 60)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name (see perfbench/README.md), "
                             "or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    names = program("list", timeout=60).split()
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        raise SystemExit(f"perfbench: unknown workload {args.workload}; "
                         f"expected one of {', '.join(names)} or all")

    results = [measure(w, args.seed, args.seconds, args.trace)
               for w in workloads]
    if len(results) == 1:
        print(json.dumps(results[0]))
        return
    # Several workloads: one combined verdict, metrics keyed by workload.
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}/{name}": metric for w, r in zip(workloads, results)
                    for name, metric in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
