#!/usr/bin/env python3
"""Record the benchmark of a checkout as ``BENCH_<n>.json`` at its root.

    python3 scripts/bench.py [--repo CHECKOUT] [--base REV]

For every workload of ``BENCHMARK.json`` this runs ``benchmark/run.py`` once
per seed of ``SEEDS`` with ``--trace 0``, one run at a time, for the file's
``run_seconds``, then once with ``--trace 1`` on ``TRACE_SEED``.  The record
holds the machine (cores, Python, numpy and scipy versions, git head), the
seeds, each run's counts and exit code, the median and quartiles
(``statistics.quantiles(values, n=4, method="inclusive")``) of every
end-to-end metric, and the traced run's per-layer metrics.  A run that fails
is recorded with its exit code, not dropped.

``--repo`` names the checkout whose benchmark runs (default: this one); the
record goes to the first unused ``BENCH_<n>.json`` at its root.  Each
workload's entry holds the checkout's side under ``change``.  That side
runs from a copy of the checkout's working tree in a temporary directory:
the files ``git ls-files --cached --others --exclude-standard`` lists, with
their uncommitted edits.  The benchmark imports the program from the
copy's ``src/``, in the interpreter that runs this script.

``--base`` pairs the record with the revision ``REV`` of the checkout's git
history, exported by ``git archive`` into a temporary directory, so both
sides run from fresh directories.  Base and
change then alternate seed by seed, with the side that runs first switching
from one seed to the next, and each workload also records the base's side
under ``base`` and, under ``pairs`` per end-to-end metric, the change's
per-seed ratio to the base and the number of pairs it won and lost (ties
count for neither).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy
import scipy

SEEDS = tuple(range(101, 111))
TRACE_SEED = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(repo, rev, dest):
    """Write the tree of ``rev`` in ``repo`` into ``dest``; returns the commit's hash."""
    head = subprocess.run(["git", "-C", repo, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", repo, "archive", "--format=tar", head],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed with exit code {archive.returncode}")
    return head


def copy_worktree(repo, dest):
    """Copy the files of ``repo``'s working tree that git lists into ``dest``.

    Those are the tracked files as they are on disk and the untracked files
    that are not ignored; a tracked file deleted from the disk is left out.
    """
    listed = subprocess.run(
        ["git", "-C", repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True, check=True,
    ).stdout.split("\0")
    for name in sorted(set(filter(None, listed))):
        source = os.path.join(repo, name)
        if not os.path.isfile(source):
            continue
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


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


def pair_summary(base_runs, change_runs, name, better):
    """The change's ratio to the base on one metric, seed by seed, and the pairs it won.

    Runs pair up by position; a pair where either side has no value has the
    ratio ``None`` and is not counted.
    """
    def value(r):
        return r.get("metrics", {}).get(name, {}).get("value")

    sign = 1 if better == "higher" else -1
    ratios, pairs, won, lost = [], 0, 0, 0
    for b, c in zip(base_runs, change_runs, strict=True):
        vb, vc = value(b), value(c)
        if vb is None or vc is None:
            ratios.append(None)
            continue
        pairs += 1
        ratios.append(vc / vb if vb else None)
        gain = sign * ((vc > vb) - (vc < vb))
        won += gain > 0
        lost += gain < 0
    valid = [r for r in ratios if r is not None]
    return {"pairs": pairs, "won": won, "lost": lost, "ratios": ratios,
            "median_ratio": statistics.median(valid) if valid else None}


def side_record(runs, traced, spec):
    """One side's runs, their end-to-end summaries and its traced per-layer metrics."""
    return {
        "runs": [{k: r.get(k) for k in ("seed", "exit", "correct", "attempted", "failed")}
                 for r in runs],
        "end_to_end": {m["name"]: summary(runs, m["name"]) for m in spec["end_to_end"]},
        "traced": {k: traced.get(k) for k in ("seed", "exit", "correct", "attempted", "failed")},
        "per_layer": {k: v["value"] for k, v in traced.get("metrics", {}).items()},
    }


def next_bench_path(repo):
    n = 1
    while os.path.exists(os.path.join(repo, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(repo, f"BENCH_{n}.json")


def bench_workload(name, sides, spec):
    """Runs of one workload on every side, seed by seed; the first side alternates."""
    seconds = spec["run_seconds"]
    runs = {side: [] for side in sides}
    for i, seed in enumerate(SEEDS):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            runs[side].append(run(sides[side], name, seed, seconds, 0))
            print(f"{name} {side} seed {seed}: exit {runs[side][-1]['exit']}", file=sys.stderr)
    out = {}
    for side, repo in sides.items():
        traced = run(repo, name, TRACE_SEED, seconds, 1)
        print(f"{name} {side} traced: exit {traced['exit']}", file=sys.stderr)
        out[side] = side_record(runs[side], traced, spec)
    if "base" in sides:
        out["pairs"] = {m["name"]: pair_summary(runs["base"], runs["change"], m["name"],
                                                m["better"])
                        for m in spec["end_to_end"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repo", default=ROOT, help="checkout to benchmark (default: this one)")
    ap.add_argument("--base", metavar="REV",
                    help="revision of the checkout to run in alternating pairs with it")
    args = ap.parse_args(argv)
    repo = os.path.abspath(args.repo)
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {
        "machine": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_head": git_head(repo),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
    }
    with contextlib.ExitStack() as stack:
        change_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="bench-change-"))
        copy_worktree(repo, change_dir)
        sides = {"change": change_dir}
        if args.base:
            base_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="bench-base-"))
            sides = {"base": base_dir, **sides}
            record["base"] = {"rev": args.base, "git_head": export(repo, args.base, base_dir)}
        record["workloads"] = {
            entry["name"]: bench_workload(entry["name"], sides, spec) for entry in spec["workloads"]
        }
    out = next_bench_path(repo)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
