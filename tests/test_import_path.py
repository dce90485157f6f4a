"""The library imports no scipy, at start-up or in any search.

Importing scipy costs about half a second, several times the rest of the
package, and the library needs none of it: the quadratures are numpy
(``numdiff._simpson``, ``numdiff._cumulative_trapezoid``), and so is the
Sobol' sampler of the rank > 2 scan directions
(``subriemannian._sobol_normal``).  Each check runs in a fresh interpreter,
because this test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys

_PROBE = """
import json, os, sys


def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


import sasakigeo, sasakigeo.cli

seen = {"import": scipy_loaded()}
out = os.path.join(sys.argv[1], "report.json")
for argv in (
    ["cc-distance", "--model", "heisenberg", "--from", "0,0,0", "--to", "1,0,0"],
    ["second-variation", "--model", "s3"],
    ["functionals", "--random"],
):
    code = sasakigeo.cli.main(argv + ["--output", out])
    seen[argv[0]] = (code, scipy_loaded())

import numpy as np
from sasakigeo import models, subriemannian as sr

s5 = models.get_model("s5")
p, q = s5.random_points(np.random.default_rng(7), 2)
cfg = sr.ShootingConfig(n_directions=4, n_alpha0=3, confirm_rounds=0)
sr.cc_distance(s5, p, q, cfg)
seen["s5"] = scipy_loaded()
print(json.dumps(seen))
"""


def _run_probe(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_the_library_imports_no_scipy(tmp_path):
    seen = _run_probe(tmp_path)
    assert seen["import"] == []
    for command in ("cc-distance", "second-variation", "functionals"):
        code, loaded = seen[command]
        assert code == 0, command
        assert loaded == [], command
    # the quasi-random directions of the s5 scan
    assert seen["s5"] == []
