#!/usr/bin/env python3
"""Search cost of the workloads' pair shapes beside freely drawn pairs.

    python3 benchmark/shapes.py sub    # cc_distance on s3 and s5, sub mode
    python3 benchmark/shapes.py riem   # s3-dhom:2.0 in riem mode

Times one ``cc_distance`` per pair, on one thread, for six pairs drawn the
way the program draws them (``random_points``) and for pairs placed at the
shapes the workloads use (``workloads.sphere_shape``).  Prints one JSON line
per pair: |<p,q>|^2, |arg <p,q>|, the distance and the search time.
"""

from __future__ import annotations

import json
import math
import os
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from sasakigeo import dhomothety, models, subriemannian as sr  # noqa: E402

import workloads  # noqa: E402

FREE_PAIRS = 6


def time_pair(tag, model, p, q, cfg):
    t0 = perf_counter()
    result = sr.cc_distance(model, p, q, cfg)
    seconds = perf_counter() - t0
    c = np.vdot(p[0::2] + 1j * p[1::2], q[0::2] + 1j * q[1::2])
    print(json.dumps({"pair": tag, "c2": round(abs(c) ** 2, 4),
                      "arg": round(abs(float(np.angle(c))), 4),
                      "distance": result.distance, "converged": result.converged,
                      "seconds": round(seconds, 3)}), flush=True)


def main(argv=None):
    part = (argv or sys.argv[1:] or ["sub"])[0]
    rng = np.random.default_rng(2024)
    if part == "sub":
        cfg = sr.ShootingConfig()
        for key, k in (("s3", 2), ("s5", 3)):
            model = models.get_model(key)
            for _ in range(FREE_PAIRS):
                p, q = model.random_points(rng, 2)
                time_pair(f"{key}-free", model, p, q, cfg)
            for _ in range(3):
                p, q = workloads.sphere_pair(rng, k, workloads.sphere_shape(k, 0.5))
                time_pair(f"{key}-median", model, p, q, cfg)
    elif part == "riem":
        model = dhomothety.apply(models.get_model("s3"), workloads.RIEM_MU)
        for i in range(FREE_PAIRS):
            p, q = model.random_points(rng, 2)
            time_pair("riem-free", model, p, q, sr.ShootingConfig(seed=100 + i, mode="riem"))
        for u in (0.25, 0.75, 0.5):
            for i in range(2):
                p, q = workloads.sphere_pair(rng, 2, workloads.sphere_shape(2, u))
                time_pair(f"riem-u{u}", model, p, q, sr.ShootingConfig(seed=200 + i, mode="riem"))
    else:
        print(f"unknown part {part!r}; choose sub or riem", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
