#!/usr/bin/env python3
"""Compare the distance searches and CLI reports of this checkout with those of a revision.

    python3 scripts/compare_searches.py [--base REV]

Runs the same 121 searches on both trees and prints, for each set, the
status changes, the largest |Δdistance| and |Δmiss| between the two, and
on each tree the refine rounds summed over the set and the refine's flow
calls (``_batched_closest_approach`` and model ``flow_points`` calls made
inside ``_refine_candidate``).  The sets are
acceptance 04's 50 pairs on each of s3 and s5 (seed 7), acceptance 08's 10
``s3-dhom:2.0`` riem pairs (seed 11), 10 Heisenberg pairs (seed 3) and the
Heisenberg unit translation ``0 -> (1, 0, 0)``, all at the default config
otherwise.

It then runs the 14 CLI commands of ``CLI_COMMANDS`` on both trees and
prints, for each, any change of exit code, any key one report has and the
other lacks, any changed value that is not a number, and the largest
|Δ| over the numbers, with the ``timestamp`` left out.

``REV`` (default ``HEAD``) is exported by ``git archive`` into a temporary
directory, and each tree runs in its own interpreter on its own ``src/``,
one after the other.  Exits 1 if any status changed, if a set has a
different number of pairs, or if a command changed its exit code, a key or a
value that is not a number; moved numbers, misses, round totals and flow
call counts are printed, not failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Commands whose reports are compared; each line is one ``sasakigeo`` argv.
CLI_COMMANDS = (
    "geodesic --model s3",
    "geodesic --model heisenberg --alpha0 0.8",
    "geodesic --model s3-dhom:2.0 --mode riem",
    "cc-distance --model heisenberg --from 0,0,0 --to 1,0,0",
    "cc-distance --model s3 --from 1,0,0,0 --to 0,0,1,0",
    "diameter --pairs 3 --seed 2",
    "cc-distance --model s5 --from 1,0,0,0,0,0 --to 0,0,1,0,0,0",
    "myers-verify --pairs 2",
    "second-variation --seed 3",
    "second-variation --model s5 --seed 3",
    "dhomothety --mu 2.0 --samples 20000",
    "functionals --random --seed 3",
    "check-identities --model s5 --points 200",
    "check-identities --model heisenberg --points 200",
)

# Defines ``count_refine_flows(sr)``, which wraps ``sr._refine_candidate`` so
# that each call adds its ``_batched_closest_approach`` and model
# ``flow_points`` calls to ``calls[0]``, and returns ``calls``.
_COUNT_FLOWS = """
def count_refine_flows(sr):
    calls = [0]
    refine = sr._refine_candidate

    def counted(flow):
        def call(*args):
            calls[0] += 1
            return flow(*args)
        return call

    def counted_refine(model, *args):
        closest = sr._batched_closest_approach
        sr._batched_closest_approach = counted(closest)
        model.flow_points = counted(model.flow_points)
        try:
            return refine(model, *args)
        finally:
            sr._batched_closest_approach = closest
            del model.flow_points

    sr._refine_candidate = counted_refine
    return calls
"""

# Run in each tree's own interpreter, with the commands as its arguments:
# prints {"searches": {set: [[status, distance, miss, rounds], ...]},
#         "flow_calls": {set: refine flow calls},
#         "cli": {command: [exit code, report or null]}}.
_RECORD = _COUNT_FLOWS + """
import contextlib
import io
import json
import sys
import numpy as np
from sasakigeo import cli, models, subriemannian as sr

def row(r):
    return [r.status, r.distance, r.miss, r.rounds]

def pairs(key, count, **cfg):
    rep = sr.estimate_diameter(models.get_model(key), count, sr.ShootingConfig(**cfg))
    return [row(pr.result) for pr in rep.pairs]

def unit():
    heis = models.get_model("heisenberg")
    return [row(sr.cc_distance(heis, np.zeros(3), np.array([1.0, 0.0, 0.0])))]

sets = {
    "s3": lambda: pairs("s3", 50, seed=7),
    "s5": lambda: pairs("s5", 50, seed=7),
    "s3-dhom:2.0-riem": lambda: pairs("s3-dhom:2.0", 10, seed=11, mode="riem"),
    "heisenberg": lambda: pairs("heisenberg", 10, seed=3),
    "heisenberg-unit": unit,
}
calls = count_refine_flows(sr)
searches, flow_calls = {}, {}
for name, run in sets.items():
    calls[0] = 0
    searches[name] = run()
    flow_calls[name] = calls[0]

def run_cli(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    text = out.getvalue()
    return [code, json.loads(text) if text.strip() else None]

print(json.dumps({"searches": searches, "flow_calls": flow_calls,
                  "cli": {c: run_cli(c) for c in sys.argv[1:]}}))
"""


def record(tree):
    """The searches and CLI reports of the tree at ``tree``, run on its ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-c", _RECORD, *CLI_COMMANDS], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(base, change):
    """Per set of ``base``: its pair count in both records, status changes, the
    largest |Δdistance| and |Δmiss| and the summed refine rounds of each record.

    A status change is ``(index, base status, change status)``.  The largest
    distance gap is taken over the pairs with a distance on both sides, and
    is ``None`` when there is none; the miss gap over the pairs both records
    hold.
    """
    out = {}
    for name, base_rows in base.items():
        change_rows = change.get(name, [])
        changes, gaps, miss_gaps = [], [], []
        for i, ((sb, db, mb, _), (sc, dc, mc, _)) in enumerate(zip(base_rows, change_rows)):
            if sb != sc:
                changes.append((i, sb, sc))
            if db is not None and dc is not None:
                gaps.append(abs(dc - db))
            miss_gaps.append(abs(mc - mb))
        out[name] = {"pairs": (len(base_rows), len(change_rows)), "status_changes": changes,
                     "max_gap": max(gaps, default=None),
                     "max_miss_gap": max(miss_gaps, default=None),
                     "rounds": (sum(r[3] for r in base_rows), sum(r[3] for r in change_rows))}
    return out


def failed(summary):
    """Whether any set changed a status or its number of pairs."""
    return any(s["status_changes"] or s["pairs"][0] != s["pairs"][1] for s in summary.values())


def _leaves(report, prefix=""):
    """``{key path: value}`` of every leaf of a JSON report, ``timestamp`` left out."""
    if isinstance(report, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in report.items()
                 if not (prefix == "" and k == "timestamp"))
    elif isinstance(report, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(report))
    else:
        return {prefix: report}
    out = {}
    for key, value in items:
        out.update(_leaves(value, key))
    return out


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_cli(base, change):
    """Per command of ``base``: its exit codes in both records, the keys only one
    report has, the changed values that are not numbers and the largest
    |Δ| over the numbers.

    Key and value changes are sorted lists of key paths; the largest gap is
    ``None`` when the reports share no number.
    """
    out = {}
    for command, (code_b, report_b) in base.items():
        code_c, report_c = change.get(command, (None, None))
        lb, lc = _leaves(report_b or {}), _leaves(report_c or {})
        gaps, values = [], []
        for key in lb.keys() & lc.keys():
            vb, vc = lb[key], lc[key]
            if _number(vb) and _number(vc):
                gaps.append(abs(vc - vb))
            elif vb != vc:
                values.append(key)
        out[command] = {"exit": (code_b, code_c), "key_changes": sorted(lb.keys() ^ lc.keys()),
                        "value_changes": sorted(values), "max_gap": max(gaps, default=None)}
    return out


def cli_failed(summary):
    """Whether any command changed its exit code, a key or a value that is not a number."""
    return any(s["exit"][0] != s["exit"][1] or s["key_changes"] or s["value_changes"]
               for s in summary.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", metavar="REV", default="HEAD",
                    help="revision to compare this checkout with (default: HEAD)")
    args = ap.parse_args(argv)
    from bench import export  # scripts/ is on the path when this runs as a script

    with tempfile.TemporaryDirectory(prefix="compare-base-") as base_dir:
        head = export(ROOT, args.base, base_dir)
        base = record(base_dir)
    change = record(ROOT)
    summary = compare(base["searches"], change["searches"])
    print(f"base {args.base} ({head[:12]}) against this checkout")
    for name, s in summary.items():
        print(set_line(name, s, (base["flow_calls"][name], change["flow_calls"][name])))
        for i, sb, sc in s["status_changes"]:
            print(f"    pair {i}: {sb} -> {sc}")
    cli_summary = compare_cli(base["cli"], change["cli"])
    width = max(map(len, cli_summary), default=0)
    for command, s in cli_summary.items():
        print(f"{command:{width}s} exit {s['exit'][0]}/{s['exit'][1]}  max |Δ| {_gap(s)}")
        for key in s["key_changes"]:
            print(f"    key only on one side: {key}")
        for key in s["value_changes"]:
            print(f"    value changed: {key}")
    return 1 if failed(summary) or cli_failed(cli_summary) else 0


def set_line(name, s, flow_calls):
    """The printed line of set ``name``'s summary ``s``, with the refine's flow
    calls ``(base, change)`` after its round totals."""
    return (f"{name:18s} pairs {s['pairs'][0]:3d}/{s['pairs'][1]:<3d} "
            f"status changes {len(s['status_changes'])}  max |Δdistance| {_gap(s)}  "
            f"max |Δmiss| {_gap(s, 'max_miss_gap')}  rounds {s['rounds'][0]}/{s['rounds'][1]}  "
            f"flow calls {flow_calls[0]}/{flow_calls[1]}")


def _gap(s, key="max_gap"):
    return "-" if s[key] is None else f"{s[key]:.3e}"


if __name__ == "__main__":
    sys.exit(main())
