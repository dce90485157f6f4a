"""Smoke runs of the experiment scripts under ``scripts/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_energy_landscape_marks_only_half_critical():
    done = run_script("energy_landscape.py", "--samples", "2", "--lmax", "8")
    assert done.returncode == 0, done.stderr
    marked = [line for line in done.stdout.splitlines() if "<-- critical" in line]
    assert len(marked) == 1 and marked[0].strip().startswith("c = 0.50"), done.stdout


def test_diameter_survey_within_bound():
    done = run_script("diameter_survey.py", "--model", "s3", "--pairs", "2", "--threads", "1")
    assert done.returncode == 0, done.stderr
    assert "within bound" in done.stdout, done.stdout


def test_deformation_sweep_flags_nothing():
    done = run_script(
        "deformation_sweep.py", "--ratios", "2.0", "--pairs", "2",
        "--volume-samples", "2000", "--threads", "1",
    )
    assert done.returncode == 0, done.stderr
    assert "<-- check" not in done.stdout, done.stdout
