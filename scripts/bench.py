#!/usr/bin/env python3
"""Record the benchmark of a checkout as ``BENCH_<n>.json`` at its root.

    python3 scripts/bench.py [--repo CHECKOUT]

For every workload of ``BENCHMARK.json`` this runs ``benchmark/run.py`` once
per seed of ``SEEDS`` with ``--trace 0``, one run at a time, for the file's
``run_seconds``, then once with ``--trace 1`` on ``TRACE_SEED``.  The record
holds the machine (cores, Python, numpy and scipy versions, git head), the
seeds, each run's counts and exit code, the median and quartiles
(``statistics.quantiles(values, n=4, method="inclusive")``) of every
end-to-end metric, and the traced run's per-layer metrics.  A run that fails
is recorded with its exit code, not dropped.

``--repo`` names the checkout whose benchmark runs (default: this one); the
record goes to the first unused ``BENCH_<n>.json`` at its root.  The
benchmark imports the program from the checkout's ``src/``, in the
interpreter that runs this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

SEEDS = (101, 102, 103, 104, 105)
TRACE_SEED = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_head(repo):
    done = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"], capture_output=True, text=True)
    if done.returncode != 0:
        return None
    dirty = subprocess.run(
        ["git", "-C", repo, "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True,
    ).stdout.strip()
    return done.stdout.strip() + ("-dirty" if dirty else "")


def run(repo, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(repo, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {"seed": seed, "trace": trace, "exit": done.returncode, **result}


def summary(runs, name):
    """Median and quartiles of one end-to-end metric over the runs that report a value."""
    found = [r["metrics"][name] for r in runs if name in r.get("metrics", {})]
    values = [m["value"] for m in found if m["value"] is not None]
    if not values:
        return None
    out = {"unit": found[0]["unit"], "n": len(values), "median": statistics.median(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    return out


def next_bench_path(repo):
    n = 1
    while os.path.exists(os.path.join(repo, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(repo, f"BENCH_{n}.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repo", default=ROOT, help="checkout to benchmark (default: this one)")
    args = ap.parse_args(argv)
    repo = os.path.abspath(args.repo)
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {
        "machine": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_head": git_head(repo),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for seed in SEEDS:
            runs.append(run(repo, name, seed, seconds, 0))
            print(f"{name} seed {seed}: exit {runs[-1]['exit']}", file=sys.stderr)
        traced = run(repo, name, TRACE_SEED, seconds, 1)
        print(f"{name} traced: exit {traced['exit']}", file=sys.stderr)
        record["workloads"][name] = {
            "runs": [{k: r.get(k) for k in ("seed", "exit", "correct", "attempted", "failed")}
                     for r in runs],
            "end_to_end": {m["name"]: summary(runs, m["name"]) for m in spec["end_to_end"]},
            "traced": {k: traced.get(k) for k in ("seed", "exit", "correct", "attempted", "failed")},
            "per_layer": {k: v["value"] for k, v in traced.get("metrics", {}).items()},
        }
    out = next_bench_path(repo)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
