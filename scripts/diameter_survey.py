"""Survey Carnot-Caratheodory distances over random pairs and compare the
largest one against the curvature diameter bound 2*pi*sqrt((2n-1)/tau).

Typical run:
    python3 scripts/diameter_survey.py --model s3 --pairs 25
"""
import argparse
import time

import numpy as np

from sasakigeo import (
    MODEL_KEYS,
    ShootingConfig,
    estimate_diameter,
    get_model,
    theoretical_diameter_bound,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="s3", choices=sorted(MODEL_KEYS))
    ap.add_argument("--pairs", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = get_model(args.model)
    bound = theoretical_diameter_bound(model)
    if bound is None:
        ap.error(f"{args.model} has no positive transverse Ricci bound, "
                 "so there is no finite diameter bound to compare against")

    t0 = time.time()
    report = estimate_diameter(model, args.pairs, ShootingConfig(seed=args.seed))
    elapsed = time.time() - t0

    dists = np.array(
        [pr.result.distance for pr in report.pairs if pr.result.converged]
    )
    print(f"model {model.key}: {dists.size}/{args.pairs} pairs converged "
          f"in {elapsed:.1f}s")
    if report.failed_indices:
        print(f"  budget-exhausted pairs: {report.failed_indices}")
    qs = np.percentile(dists, [0, 25, 50, 75, 100])
    print("  distance quartiles: " + "  ".join(f"{v:.4f}" for v in qs))
    print(f"  diameter estimate  {report.estimate:.6f}")
    print(f"  curvature bound    {bound:.6f}")
    print(f"  estimate / bound   {report.estimate / bound:.4f}")
    if report.worst_pair is not None:
        wp = report.worst_pair
        np.set_printoptions(precision=5, suppress=True)
        print(f"  worst pair #{wp.index}: p={wp.p} q={wp.q} "
              f"alpha0={wp.result.alpha0:+.4f}")
    status = "within bound" if report.estimate <= bound * 1.01 else "EXCEEDS BOUND"
    print(f"  -> {status}")


if __name__ == "__main__":
    main()
