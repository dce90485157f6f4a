"""Tests of the benchmark itself: its checks, its tracer and its output.

Run from the repository root with ``python3 -m pytest benchmark -q``.
Each workload gets a planted wrong answer that its checks must count as a
failed op.
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from sasakigeo import dhomothety, models, subriemannian as sr
from tracing import Tracer

ROOT = os.path.dirname(run.HERE)


def converged(model, p, covector, distance, mode="sub"):
    state = sr.CotangentState.make(model, p, covector, mode)
    return sr.ShootingResult("converged", distance, state, 0.0, 0.0, False, 4.0, False, 0)


class Planted:
    """A workload whose ops return fixed outputs to the real checks."""

    def __init__(self, ops, distances):
        self._ops = ops
        self.distances = distances

    def round(self, r):
        return self._ops


def run_planted(ops, distances):
    runner = run.Runner(Planted(ops, distances), ops)
    runner.run_round(0)
    return runner


def known_answers():
    """Exact minimizers for the distance-sub pairs with known answers."""
    wl = workloads.DistanceSub(seed=4)
    queries = {q["name"]: q for q in wl.queries(0)}
    heis = models.get_model("heisenberg")
    unit = queries["heis-unit"]
    # the E1 line: covector (1, 0, 0) has w = 1, a_y = a_z = 0
    heis_result = converged(heis, unit["p"], np.array([1.0, 0.0, 0.0]), 1.0)
    anti = queries["s3-antipode"]
    p = anti["p"]
    u = np.array([-p[2], p[3], p[0], -p[1]])  # orthogonal to p and to Jp
    s3_result = converged(models.get_model("s3"), p, u, math.pi)
    return wl, [(unit, heis_result), (anti, s3_result)]


def distance_ops(wl, pairs, shift=0.0):
    def planted(query, result):
        result = sr.ShootingResult(**{**vars(result), "distance": result.distance + shift})
        return workloads.Op(query["name"], lambda: result,
                            lambda out: checks.check_distance(query, out, wl.cfg.hit_tol))

    return [planted(q, r) for q, r in pairs]


def test_distance_checks_accept_exact_minimizers():
    wl, pairs = known_answers()
    runner = run_planted(distance_ops(wl, pairs), wl.distances)
    assert (runner.attempted, runner.failed) == (2, 0)
    assert runner.distances == pytest.approx([1.0, math.pi])


def test_distance_shifted_by_005_is_a_failed_op():
    wl, pairs = known_answers()
    runner = run_planted(distance_ops(wl, pairs, shift=0.05), wl.distances)
    assert (runner.attempted, runner.failed) == (2, 2)


def horizontal_riem_report(perturb=0.0):
    """Two pairs joined by horizontal great circles, exact in riem mode.

    With a0 = 0 the deformed flow runs the great circle at round speed
    1/sqrt(s), so q = cos(th) p + sin(th) u is reached at time sqrt(s) th.
    """
    mu = workloads.RIEM_MU
    s = 1.0 / mu
    deformed = dhomothety.apply(models.get_model("s3"), mu)
    rng = np.random.default_rng(8)
    pairs = []
    for i, th in enumerate((0.9, 2.3)):
        p, cov = workloads._sphere_covector(rng, 2, 0.0)
        q = math.cos(th) * p + math.sin(th) * cov
        cov = math.sqrt(s) * cov + perturb * checks.complex_rotation(p)
        result = converged(deformed, p, cov, math.sqrt(s) * th, mode="riem")
        pairs.append(sr.PairResult(i, p, q, result))
    worst = max(pairs, key=lambda pr: pr.result.distance)
    return sr.DiameterReport(deformed.key, worst.result.distance, worst, pairs, False)


def diameter_op(report):
    wl = workloads.DiameterRiem(seed=0)
    op = wl.round(0)[0]
    return wl, workloads.Op("estimate", lambda: report, op.check)


def test_diameter_checks_accept_exact_geodesics():
    wl, op = diameter_op(horizontal_riem_report())
    runner = run_planted([op], wl.distances)
    assert (runner.attempted, runner.failed) == (1, 0)


def test_diameter_perturbed_covector_is_a_failed_op():
    wl, op = diameter_op(horizontal_riem_report(perturb=1e-2))
    runner = run_planted([op], wl.distances)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_verify_round_passes_and_wrong_I_is_a_failed_op(tmp_path):
    wl = workloads.Verify(seed=2, out_dir=str(tmp_path))
    op = wl.round(0)[0]
    runner = run_planted([op], wl.distances)
    assert (runner.attempted, runner.failed) == (1, 0)

    out_path = tmp_path / "functionals-2-0.json"

    def wrong_I():
        out = op.call()
        payload = json.loads(out_path.read_text())
        payload["functionals"]["I"] *= 1.0 + 1e-6
        out_path.write_text(json.dumps(payload))
        return out

    runner = run_planted([workloads.Op("round", wrong_I, op.check)], wl.distances)
    assert (runner.attempted, runner.failed) == (1, 1)


# ---------------------------------------------------------------------------
# The reference flows agree with the program where both are exact.
# ---------------------------------------------------------------------------


def test_reference_flows_match_program_closed_forms():
    rng = np.random.default_rng(3)
    s5 = models.get_model("s5")
    p, cov = workloads._sphere_covector(rng, 3, 0.7)
    exact = s5.closed_form_from_covector(p, cov, np.array([1.3]))[0]
    assert np.allclose(checks.sphere_sub_flow(p, cov, 1.3), exact, atol=1e-12)

    heis = models.get_model("heisenberg")
    p, cov = workloads._heis_covector(rng, -0.6)
    exact = heis.closed_form_from_covector(p, cov, np.array([2.1]))[0]
    assert np.allclose(checks.heisenberg_sub_flow(p, cov, 2.1), exact, atol=1e-10)


def test_deformed_riem_flow_matches_program_integrator():
    deformed = dhomothety.apply(models.get_model("s3"), 2.0)
    rng = np.random.default_rng(5)
    p, cov = workloads._sphere_covector(rng, 2, 0.4)
    state = sr.CotangentState.make(deformed, p, cov, "riem")
    path = sr.integrate_geodesic(deformed, state, 1.5, 3000)
    ref = checks.dhom_sphere_riem_flow(2.0, p, cov, 1.5)
    assert np.linalg.norm(path.points[-1] - ref) < 1e-9


def test_sphere_shapes_are_quantiles_of_uniform_pairs():
    rng = np.random.default_rng(9)
    for key, k in (("s3", 2), ("s5", 3)):
        model = models.get_model(key)
        p, q = model.random_points(rng, 20000), model.random_points(rng, 20000)
        c = np.sum((p[:, 0::2] + 1j * p[:, 1::2]).conj() * (q[:, 0::2] + 1j * q[:, 1::2]), axis=1)
        for u in (0.25, 0.5, 0.75):
            shape = workloads.sphere_shape(k, u)
            assert np.quantile(np.abs(c) ** 2, u) == pytest.approx(abs(shape) ** 2, abs=0.02)
            assert np.quantile(np.abs(np.angle(c)), u) == pytest.approx(np.angle(shape), abs=0.05)


def test_pairs_have_their_shapes():
    rng = np.random.default_rng(6)
    for k, c in ((2, workloads.S3_SHAPE), (3, workloads.S5_SHAPE)):
        p, q = workloads.sphere_pair(rng, k, c)
        zp, zq = p[0::2] + 1j * p[1::2], q[0::2] + 1j * q[1::2]
        assert np.vdot(zp, zq) == pytest.approx(c, abs=1e-12)
    model = workloads.ShapedPairsModel(2.0, workloads.RIEM_SHAPES)
    ps = model.random_points(rng, 2)
    qs = model.random_points(rng, 2)
    for p, q, c in zip(ps, qs, workloads.RIEM_SHAPES):
        assert p @ q == pytest.approx(c.real, abs=1e-12)


def test_heisenberg_translation_is_an_isometry():
    heis = models.get_model("heisenberg")
    p = np.array([0.3, -0.7, 0.2])
    r = sr.cc_distance(heis, p, workloads.heis_translate(p, workloads.HEIS_UNIT),
                       sr.ShootingConfig(n_directions=8, n_alpha0=5, confirm_rounds=0))
    assert r.converged and r.distance == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Tracer and output.
# ---------------------------------------------------------------------------


def test_tracer_counts_deformed_rhs_once_and_restores_originals():
    before = dhomothety.DHomotheticModel.hamiltonian_rhs
    make_before = inspect.getattr_static(sr.CotangentState, "make")
    deformed = dhomothety.apply(models.get_model("s3"), 2.0)
    p, cov = workloads._sphere_covector(np.random.default_rng(7), 2, 0.3)
    state = sr.CotangentState.make(deformed, p, cov)
    tracer = Tracer()
    tracer.install("sasakigeo", layers.targets())
    try:
        tracer.run_span("bench.op", lambda: sr.integrate_geodesic(deformed, state, 1.0, 100))
    finally:
        tracer.uninstall()
    assert dhomothety.DHomotheticModel.hamiltonian_rhs is before
    assert inspect.getattr_static(sr.CotangentState, "make") is make_before
    totals = tracer.totals()
    assert totals["models.rhs"][0] == 400  # 4 stages x 100 steps, not 800
    assert totals["subriemannian.integrate_geodesic"][0] == 1
    assert sum(tracer.layer_self().values()) == pytest.approx(tracer.wall(), rel=1e-9)
    got = layers.metrics(tracer, 0.0)
    assert got["models.rhs_rows"]["value"] == 400
    assert set(got) == set(layers.PER_LAYER)


def test_model_methods_and_classmethods_are_charged_to_their_layers():
    s3 = models.get_model("s3")
    p, cov = workloads._sphere_covector(np.random.default_rng(7), 2, 0.3)

    def op():
        state = sr.CotangentState.make(s3, p, cov)
        return s3.orthonormal_frame(state.point), s3.metric(p, cov, cov)

    tracer = Tracer()
    tracer.install("sasakigeo", layers.targets())
    try:
        tracer.run_span("bench.op", op)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["subriemannian.CotangentState.make"][0] == 1
    assert totals["models.orthonormal_frame"][0] == 1
    assert totals["models.metric"][0] >= 1
    assert tracer.layer_self()["bench"] < tracer.layer_self()["models"]


class Workload:
    """A planted workload: fixed ops, one distance per passed op."""

    def __init__(self, ops):
        self.ops = ops

    def round(self, r):
        return self.ops

    @staticmethod
    def distances(out):
        return [1.0]


def raising():
    raise ValueError("planted")


def run_main(monkeypatch, capsys, ops, trace=0):
    monkeypatch.setattr(workloads, "make", lambda name, seed, out_dir: Workload(ops))
    code = run.main(["--workload", "planted", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_op_failing_still_prints_the_result(monkeypatch, capsys):
    ops = [workloads.Op("raises", raising, lambda out: []),
           workloads.Op("wrong", lambda: 0, lambda out: ["planted wrong answer"])]
    code, result = run_main(monkeypatch, capsys, ops)
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)
    assert result["metrics"]["dist_mean"]["value"] is None
    assert result["metrics"]["ops_per_s"]["value"] == 0.0


def test_a_raising_op_counts_as_failed_and_its_time_counts(monkeypatch, capsys):
    def slow_raise():
        time.sleep(0.05)
        raising()

    ops = [workloads.Op("passes", lambda: 0, lambda out: []),
           workloads.Op("raises", slow_raise, lambda out: [])]
    code, result = run_main(monkeypatch, capsys, ops)
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert result["metrics"]["ops_per_s"]["value"] < 1.0 / 0.05


def test_traced_run_refuses_time_spent_outside_every_layer(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    ops = [workloads.Op("sleeps", lambda: time.sleep(0.05), lambda out: [])]
    with pytest.raises(RuntimeError, match="outside every layer"):
        run_main(monkeypatch, capsys, ops, trace=1)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
