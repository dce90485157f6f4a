#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, in two alternating sets.

    python3 benchmark/spread.py --workload verify --seeds 1-20

runs ``run.py`` once per seed, one run at a time, for ``run_seconds`` of
``BENCHMARK.json``.  The runs alternate between two sets (the first, third,
fifth ... run form set A, the second, fourth ... set B), so a drift of the
machine's speed over the minutes of the runs falls on both sets alike.  For
every end-to-end metric it prints each set's median and the distance between
its first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), and how far set B's median lies from
set A's.  The runs' result lines are kept in
``benchmark/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-20"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    results = []
    with open(log, "a", encoding="utf-8") as fh:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = done.stdout.strip().splitlines()[-1]
            fh.write(json.dumps({"seed": seed, **json.loads(line)}) + "\n")
            fh.flush()
            results.append(json.loads(line))
    sets = {"A": results[0::2], "B": results[1::2]}
    for (label, rs), seeds in zip(sets.items(), (args.seeds[0::2], args.seeds[1::2])):
        print(f"{args.workload} set {label}: {len(rs)} runs, seeds {seeds}, "
              f"failed {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}, "
              f"all correct {all(r['correct'] for r in rs)}")
    for m in spec["end_to_end"]:
        (med_a, spread_a), (med_b, spread_b) = (summary(rs, m["name"]) for rs in sets.values())
        print(f"  {m['name']:12s} A {med_a:10.6g} ({spread_a:6.2%})  B {med_b:10.6g} "
              f"({spread_b:6.2%})  B/A-1 {med_b / med_a - 1:+7.2%}  bound {m['bound']:.0%}")


if __name__ == "__main__":
    sys.exit(main())
