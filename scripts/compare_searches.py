#!/usr/bin/env python3
"""Compare the distance searches of this checkout with those of a revision.

    python3 scripts/compare_searches.py [--base REV]

Runs the same 121 searches on both trees and prints, for each set, the
status changes and the largest |Δdistance| between the two.  The sets are
acceptance 04's 50 pairs on each of s3 and s5 (seed 7), acceptance 08's 10
``s3-dhom:2.0`` riem pairs (seed 11), 10 Heisenberg pairs (seed 3) and the
Heisenberg unit translation ``0 -> (1, 0, 0)``, all at the default config
otherwise.  ``REV`` (default ``HEAD``) is exported by ``git archive`` into a
temporary directory, and each tree runs in its own interpreter on its own
``src/``, one after the other.  Exits 1 if any status changed, or if a set
has a different number of pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in each tree's own interpreter: prints {set: [[status, distance], ...]}.
_RECORD = """
import json
import numpy as np
from sasakigeo import models, subriemannian as sr

def pairs(key, count, **cfg):
    rep = sr.estimate_diameter(models.get_model(key), count, sr.ShootingConfig(**cfg))
    return [[pr.result.status, pr.result.distance] for pr in rep.pairs]

heis = models.get_model("heisenberg")
unit = sr.cc_distance(heis, np.zeros(3), np.array([1.0, 0.0, 0.0]))
print(json.dumps({
    "s3": pairs("s3", 50, seed=7),
    "s5": pairs("s5", 50, seed=7),
    "s3-dhom:2.0-riem": pairs("s3-dhom:2.0", 10, seed=11, mode="riem"),
    "heisenberg": pairs("heisenberg", 10, seed=3),
    "heisenberg-unit": [[unit.status, unit.distance]],
}))
"""


def record(tree):
    """The searches of the tree at ``tree``, run on its ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-c", _RECORD], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(base, change):
    """Per set of ``base``: its pair count in both records, status changes and largest |Δdistance|.

    A status change is ``(index, base status, change status)``.  The largest
    gap is taken over the pairs with a distance on both sides, and is
    ``None`` when there is none.
    """
    out = {}
    for name, base_rows in base.items():
        change_rows = change.get(name, [])
        changes, gaps = [], []
        for i, ((sb, db), (sc, dc)) in enumerate(zip(base_rows, change_rows)):
            if sb != sc:
                changes.append((i, sb, sc))
            if db is not None and dc is not None:
                gaps.append(abs(dc - db))
        out[name] = {"pairs": (len(base_rows), len(change_rows)), "status_changes": changes,
                     "max_gap": max(gaps, default=None)}
    return out


def failed(summary):
    """Whether any set changed a status or its number of pairs."""
    return any(s["status_changes"] or s["pairs"][0] != s["pairs"][1] for s in summary.values())


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
    summary = compare(base, change)
    print(f"base {args.base} ({head[:12]}) against this checkout")
    for name, s in summary.items():
        gap = "-" if s["max_gap"] is None else f"{s['max_gap']:.3e}"
        print(f"{name:18s} pairs {s['pairs'][0]:3d}/{s['pairs'][1]:<3d} "
              f"status changes {len(s['status_changes'])}  max |Δdistance| {gap}")
        for i, sb, sc in s["status_changes"]:
            print(f"    pair {i}: {sb} -> {sc}")
    return 1 if failed(summary) else 0


if __name__ == "__main__":
    sys.exit(main())
