"""Sweep the transverse-scaling deformation ratio mu and tabulate what it does
to the 3-sphere model: Reeb period scaling, volume power law, the deformed
Ricci lower bound, and the Riemannian diameter of the deformed metric.

For mu >= 1 the deformed metric keeps Ric >= 2n g (with t = 1/mu as the source
curvature fraction), so its Riemannian diameter stays below pi + tolerance.
"""
import argparse
import time

import numpy as np

from sasakigeo import (
    ShootingConfig,
    dhomothetic,
    estimate_diameter,
    get_model,
)
from sasakigeo.dhomothety import ricci_bound_check, volume_scaling_check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ratios", type=float, nargs="+",
                    default=[1.0, 1.25, 1.5, 2.0, 3.0])
    ap.add_argument("--pairs", type=int, default=8,
                    help="pairs for the Riemannian diameter estimate")
    ap.add_argument("--volume-samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    source = get_model("s3")
    print(f"{'mu':>6} {'tau':>8} {'vol ratio':>12} {'mu^-(n+1)':>12} "
          f"{'ricci slack':>12} {'riem diam':>10} {'time':>6}")
    for mu in args.ratios:
        t0 = time.time()
        deformed = dhomothetic(source, mu)
        vol = volume_scaling_check(source, mu, samples=args.volume_samples,
                                   seed=args.seed)
        if mu >= 1.0:
            ricci = ricci_bound_check(source, 1.0 / mu, seed=args.seed)
            slack = ricci.min_horizontal_slack
        else:
            slack = np.nan  # t = 1/mu > 1 leaves the theorem's range
        diam = estimate_diameter(
            deformed, args.pairs, ShootingConfig(seed=args.seed, mode="riem")
        )
        flag = "" if (not diam.partial and diam.estimate <= np.pi + 2e-2) else "  <-- check"
        print(f"{mu:6.2f} {deformed.tau:8.3f} {vol.measured_ratio:12.6f} "
              f"{vol.expected_ratio:12.6f} {slack:12.3e} "
              f"{diam.estimate:10.6f} {time.time()-t0:5.1f}s{flag}")
    print(f"(riemannian diameter of the round sphere is pi = {np.pi:.6f}; "
          "deformation with mu > 1 shrinks it)")


if __name__ == "__main__":
    main()
